"""One workload process of the benchmark; run.py launches it.

Modes:
  setup    import, run operation 0, report when it completed, exit
  measure  as setup, then time warm operations for --seconds and gate each
  trace    trace operation 0 and the next ``traced_ops`` operations, then
           re-run those warm operations untraced to price the tracing

In setup and measure mode ``host_reference`` runs after operation 0 and
after every timed operation, so that run.py can scale each time to a
reference host speed.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def attempt(workload, i: int, tracer=None):
    """Run operation ``i``; return (seconds, output, error kind or None)."""
    call = lambda: workload.operation(i)  # noqa: E731
    start = time.perf_counter()
    try:
        out, err = (tracer.run_op(i, call) if tracer else call()), None
    except Exception as exc:  # a raising operation is a counted failure, not a crash
        traceback.print_exc(limit=1, file=sys.stderr)
        out, err = None, type(exc).__name__
    return time.perf_counter() - start, out, err


def host_reference() -> float:
    """Seconds taken by a fixed, bench-owned mix of interpreter work, small-array
    numpy calls and dense linear algebra: how fast the host runs right now."""
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 128)
    for i in range(6000):
        c = np.cumsum(np.exp(-(x - (i % 7) * 0.1) ** 2))
        np.searchsorted(c, c[-1] * 0.5)
        sum(range(40))
    rng = np.random.default_rng(0)
    h = rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100))
    m = rng.normal(size=(256, 256))
    for _ in range(12):
        np.linalg.eigvalsh(h + h.conj().T)
        m @ m
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--tmp", required=True, help="scratch directory for CLI outputs")
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gibbslines
    except ImportError as exc:
        print(f"cannot import gibbslines from {src}: {exc}", file=sys.stderr)
        return 1
    if Path(gibbslines.__file__).resolve().parent != src / "gibbslines":
        print(f"gibbslines imported from {gibbslines.__file__}, not {src}", file=sys.stderr)
        return 1
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.tmp))

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(workloads.trace_targets())
    cold_s, out, err = attempt(wl, 0, tracer)
    setup_done = time.monotonic()
    setup = {"setup_done": setup_done}
    if args.mode != "trace":
        setup["setup_ref_s"] = host_reference()
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    failures: Counter = Counter()

    def gate(i, out, err):
        kind = err or wl.check(i, out)
        if kind:
            failures[kind] += 1

    gate(0, out, err)
    result = {**setup, "cold_op_s": cold_s, "samples_per_op": wl.samples}
    if args.mode == "measure":
        op_s, ref_s = [], []
        while sum(op_s) < args.seconds:
            dt, out, err = attempt(wl, len(op_s) + 1)
            op_s.append(dt)
            ref_s.append(host_reference())
            gate(len(op_s), out, err)
        result["op_s"] = op_s
        result["ref_s"] = ref_s
    else:
        traced = range(1, wl.traced_ops + 1)
        for i in traced:
            gate(i, *attempt(wl, i, tracer)[1:])
        tracer.uninstall()
        untraced_s = sum(attempt(wl, i)[0] for i in traced)
        traced_s = sum(tracer.op_walls[i] for i in traced)
        metrics = workloads.layer_metrics(tracer)
        wall = sum(tracer.op_walls.values())
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = tracer.unattributed()
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in workloads.LAYERS)
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in workloads.PER_LAYER}
        result["accounting_error"] = abs(layer_sum + metrics["trace.unattributed_s"] - wall) / wall
        if args.spans:
            names = sorted({s[0] for s in tracer.spans})
            index = {n: k for k, n in enumerate(names)}
            rows = [[index[n], a, b, p, op] for n, a, b, p, op in tracer.spans]
            Path(args.spans).write_text(json.dumps({"names": names, "spans": rows,
                                                    "fields": ["name", "start", "end", "parent", "op"]}))
    result["attempted"] = 1 + (len(result["op_s"]) if "op_s" in result else wl.traced_ops)
    result["failures"] = dict(failures)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = _versions()
    print(json.dumps(result))
    return 0


def _versions() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas[k] for k in ("name", "version") if k in blas},
    }


if __name__ == "__main__":
    sys.exit(main())
