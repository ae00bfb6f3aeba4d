#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds benchmark/ (and through it the
repository's libraries) into .bench_build/ with CMake on first use, then
runs lmp_bench. Its standard output ends with one JSON line: correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). Traced runs leave their artifacts
(trace.json, spans.json, layers.txt) in .bench_build/out/<workload>/.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD = REPO / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build of lmp_bench."""
    if not (REPO / "src").is_dir() or not (REPO / "CMakeLists.txt").is_file():
        log(f"no repository sources next to {BENCH_DIR}; nothing to build")
        return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR)])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                  "--target", "lmp_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return CMAKE_DIR / "lmp_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--perturb-reference", action="store_true",
                    help="self-test: corrupt the reference so every check fails")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    out_dir = BUILD / "out" / args.workload
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir),
           "--scratch", str(BUILD / "scratch" / f"{args.workload}-{os.getpid()}")]
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"lmp_bench exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # A failed run prints no result, even one lmp_bench got out.
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")) + "\n")
        log(f"lmp_bench exited with {proc.returncode}")
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(proc.stdout)
        log("lmp_bench did not end with a result line")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
