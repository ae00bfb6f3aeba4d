#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 benchmark/selftest.py

Run from the repository root (builds through run.py on first use). Checks:
  1. metric names match [A-Za-z0-9_.-]+ and equal BENCHMARK.json's lists,
     kinds and units exactly;
  2. one seed always generates identical inputs, another seed other ones;
  3. a timed run reports every end-to-end metric and a traced run every
     per-layer metric, on every workload, none of them 0, and the traced
     run leaves its artifacts;
  4. a perturbed reference is caught (the run reports incorrect);
  5. a workload whose busy threads exceed the usable CPUs is refused.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(REPO / "benchmark" / "run.py")]
BINARY = REPO / ".bench_build" / "cmake" / "lmp_bench"
NAME = re.compile(r"[A-Za-z0-9_.-]+")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run_bench(workload, trace, seconds, *extra, **kw):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "7",
                                 "--seconds", str(seconds), "--trace", str(trace),
                                 *extra],
                          cwd=REPO, stdout=subprocess.PIPE, text=True, **kw)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, (json.loads(last) if last.startswith("{") else None)


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    # The build happens here, through the same path the benchmark uses.
    rc, _ = run_bench("lj-strong", 0, 0.1)
    check(rc == 0 and BINARY.is_file(), "benchmark builds and runs")

    # 1. names
    listed = subprocess.run([str(BINARY), "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    catalog = {}
    for line in filter(None, listed):
        name, kind, unit = line.split()
        catalog[name] = (kind, unit)
    bad = [n for n in list(e2e) + list(layer) if NAME.fullmatch(n) is None]
    check(not bad, f"metric names match [A-Za-z0-9_.-]+ {bad or ''}")
    check({n: ("end_to_end", u) for n, u in e2e.items()} ==
          {n: v for n, v in catalog.items() if v[0] == "end_to_end"},
          "end-to-end metrics and units match the program's catalog")
    check({n: ("per_layer", u) for n, u in layer.items()} ==
          {n: v for n, v in catalog.items() if v[0] == "per_layer"},
          "per-layer metrics and units match the program's catalog")

    # 2. generated inputs
    def inputs(wl, seed):
        return subprocess.run([str(BINARY), "--print-inputs", wl, str(seed)],
                              stdout=subprocess.PIPE, text=True, check=True).stdout
    for wl in workloads:
        check(inputs(wl, 11) == inputs(wl, 11), f"{wl}: one seed, identical inputs")
        check(inputs(wl, 11) != inputs(wl, 12), f"{wl}: another seed, other inputs")

    # 3. every metric on every workload, none of them 0, and the
    #    traced-run artifacts
    def zeros(res):
        return [n for n, m in res["metrics"].items() if m["value"] == 0]
    for wl in workloads:
        rc, res = run_bench(wl, 0, 1)
        check(rc == 0 and res is not None and set(res["metrics"]) == set(e2e)
              and res["correct"], f"{wl}: timed run reports every end-to-end metric")
        check(res is not None and not zeros(res),
              f"{wl}: no end-to-end metric reads 0 {zeros(res) if res else ''}")
        rc, res = run_bench(wl, 1, 2)
        check(rc == 0 and res is not None and set(res["metrics"]) == set(layer)
              and res["correct"], f"{wl}: traced run reports every per-layer metric")
        check(res is not None and not zeros(res),
              f"{wl}: no per-layer metric reads 0 {zeros(res) if res else ''}")
        out = REPO / ".bench_build" / "out" / wl
        try:
            json.loads((out / "trace.json").read_text())
            json.loads((out / "spans.json").read_text())
            table = (out / "layers.txt").read_text()
            ok = all(name in table for name in layer)
        except (OSError, ValueError):
            ok = False
        check(ok, f"{wl}: trace.json, spans.json and layers.txt written")

    # 4. a perturbed reference must be caught
    for wl in ("lj-strong", "serve-ckpt"):
        rc, res = run_bench(wl, 0, 1, "--perturb-reference")
        check(rc == 0 and res is not None and not res["correct"] and res["failed"] > 0,
              f"{wl}: perturbed reference is reported incorrect")

    # 5. host-shape guard: on one CPU the 4-thread workload is refused
    if hasattr(os, "sched_setaffinity"):
        rc, res = run_bench("lj-strong", 0, 1,
                            preexec_fn=lambda: os.sched_setaffinity(0, {0}))
        check(rc != 0 and res is None, "lj-strong is refused on a 1-CPU affinity")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
