#!/usr/bin/env python3
"""Builds and runs one workload of the QbS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark (Release) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later runs rebuild incrementally. Each
run first executes the self-test of the benchmark's helpers, then the
workload. Build output goes to stderr; stdout carries the workload's notes
and, as its last line, the JSON result. The result's metric names are
checked against BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1). Exits non-zero, without a result line, when the build, the
self-test or that check fails, and with the workload's code (1) when an
answer was wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                  "qbs_perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve()
    build(build_dir)
    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        fail("self-test failed")

    work_dir = build_dir / "work"
    cmd = [str(build_dir / "qbs_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line is not a JSON result")
    names = list(result.get("metrics", {}))
    want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(want):
        fail(f"metrics {sorted(set(names) ^ set(want))} do not match "
             "BENCHMARK.json")
    print("\n".join(lines), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
