#!/usr/bin/env python3
"""Builds the CAMS benchmark and runs one workload.

Run from the repository root:

    python3 camsbench/run.py --workload suite-heuristic --seed 1 \
        --seconds 25 --trace 0

Workloads: suite-heuristic, race-exact, serve-cache (see
camsbench/NOTE.md). The benchmark binary and the cams library it
drives are built in Release mode from this directory (which builds
../src) into $CARGO_TARGET_DIR/camsbench, default
.bench_build/camsbench. Build output goes to stderr; stdout carries the
benchmark's report, whose last line is the JSON result. The exit code
is non-zero when the build fails, an operation fails or a check on
the program's output is violated.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-heuristic", "race-exact", "serve-cache")


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "camsbench")
    if not build(build_dir):
        print("camsbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "run")
    os.makedirs(out_dir, exist_ok=True)
    # Relative to the repository root, so the server's socket path
    # stays short wherever the checkout lives.
    command = [os.path.join(build_dir, "camsbench"),
               "--workload", args.workload,
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", os.path.relpath(out_dir, ROOT)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
