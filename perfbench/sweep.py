"""Repeat run.py over seeds; report each end-to-end metric's median and spread.

    python3 perfbench/sweep.py [--workloads NAME ...] [--seeds 10] [--first-seed 1]
                               [--trace] [--out FILE]

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of their
median; the benchmark is steady when every spread except ``setup_s`` is
below a third of the metric's bound in BENCHMARK.json.  ``--trace`` runs the
traced variant and summarises the per-layer metrics instead (no bounds).
``--out`` writes every value, the failure counts and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    trace = int(args.trace)
    report = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "trace": trace,
              "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            record = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
            runs[-1]["failures"] = record["failures"]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": {},
            "environment": record["environment"],
            "metrics": {},
        }
        for r in runs:
            for kind, n in r["failures"].items():
                entry["failures"][kind] = entry["failures"].get(kind, 0) + n
        print(f"{workload}: {entry['failed']} of {entry['attempted']} operations failed {entry['failures']}")
        for metric in spec["per_layer" if trace else "end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            entry["metrics"][name] = {"unit": metric["unit"], "median": med, "values": values}
            if trace:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            entry["metrics"][name].update(q1=q1, q3=q3, spread=spread, bound=metric["bound"])
            print(f"  {name:14s} median {med:10.4g} {metric['unit']:4s} spread {spread:.4f} "
                  f"(bound {metric['bound']}) {'ok' if ok else 'UNSTEADY'}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
