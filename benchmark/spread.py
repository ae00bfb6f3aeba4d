#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py [--runs 10] [--seconds 10] [--first-seed 1] [workload ...]

Runs the benchmark once per seed on each workload (all of them by
default) and prints, per metric, the median and the interquartile range
as a share of the median (statistics.quantiles, n=4), next to the
metric's bound from BENCHMARK.json. A steady benchmark keeps every
spread, setup_s's too, below a third of its bound; a spread above its
bound is flagged OVER and makes the exit status 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for wl in names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(REPO / "benchmark" / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: incorrect result {result}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "OVER" if spread > bounds[name] else (
                "ok" if spread < bounds[name] / 3 else "near")
            ok = ok and flag != "OVER"
            print(f"{wl:12s} {name:12s} median {med:12.6g}  spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}  {flag:4s}  runs {len(v)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
