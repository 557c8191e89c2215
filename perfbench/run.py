"""gibbslines benchmark: one closed-loop workload per call, gated by oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process runs operations back to back (a closed loop),
with BLAS/OpenMP threads pinned to 1.  Every output is checked against an
oracle outside the timed section; an operation that raises or fails its
check counts in ``failed``.

--trace 0  end-to-end metrics.  ``setup_s`` is the median over SETUP_LAUNCHES
           fresh interpreters of the time from launch until operation 0
           completed; the last of them goes on to time warm operations for
           --seconds, giving ``samples_per_s`` (median over operations) and
           ``peak_rss_mb``.
--trace 1  per-layer metrics from a separate traced process (see worker.py).

A shared machine's speed drifts by tens of percent within minutes, so
each set-up and each operation is followed by a fixed reference kernel
(``worker.host_reference``), and ``setup_s`` and ``samples_per_s`` are
scaled to a host on which that kernel takes REF_BASE_S seconds.  The
unscaled figures are kept in the record.

Workloads, metrics and the layers each workload should move are described
in perfbench/README.md.  The full record of a run, with the environment, is
written to perfbench/results/; the last line of standard output is the
JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_LAUNCHES = 3
REF_BASE_S = 0.1
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (("setup_s", "s"), ("samples_per_s", "1/s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def launch(args, mode: str, tmp: str, deadline: float, spans: Path | None = None):
    """Run one worker process; return (monotonic launch time, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, "--tmp", tmp]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} worker ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    try:
        if args.trace:
            _, res = launch(args, "trace", tmp, deadline, spans=RESULTS / f"{stem}-spans.json")
            metrics = res["metrics"]
            record["accounting_error"] = res["accounting_error"]
        else:
            setups = []
            for mode in ["setup"] * (SETUP_LAUNCHES - 1) + ["measure"]:
                start, res = launch(args, mode, tmp, deadline)
                setups.append((res["setup_done"] - start, res["setup_ref_s"]))
            raw_rates = [res["samples_per_op"] / dt for dt in res["op_s"]]
            rates = [r * ref / REF_BASE_S for r, ref in zip(raw_rates, res["ref_s"])]
            values = {
                "setup_s": statistics.median(s * REF_BASE_S / ref for s, ref in setups),
                "samples_per_s": statistics.median(rates),
                "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            record["setup_runs"] = [{"wall_s": s, "ref_s": ref} for s, ref in setups]
            record["samples_per_s_jobs"] = {"count": len(rates), "quartiles": quartiles(rates)}
            record["unscaled"] = {
                "setup_s": statistics.median(s for s, _ in setups),
                "samples_per_s": statistics.median(raw_rates),
                "samples_per_s_quartiles": quartiles(raw_rates),
            }
            record["op_s"] = res["op_s"]
            record["ref_s"] = res["ref_s"]
            record["cold_op_s"] = res["cold_op_s"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = res["attempted"]
    failures = res["failures"]
    failed = sum(failures.values())
    correct = failed == 0 and (not args.trace or record["accounting_error"] <= 0.01)
    record["environment"]["versions"] = res["versions"]
    record.update(attempted=attempted, failed=failed, failures=failures,
                  failed_frac=failed / attempted, metrics=metrics, correct=correct)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    detail = " ".join(f"{k}={v}" for k, v in sorted(failures.items()))
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations) {detail}")
    if args.trace:
        print(f"trace accounting error {record['accounting_error']:.3g} of traced wall time")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
