#!/usr/bin/env python3
"""Builds the campaign benchmark from source if needed, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Every argument is passed to the perfbench binary (see README.md). The build
goes to $CARGO_TARGET_DIR/perfbench-cmake, default .bench_build/perfbench-cmake,
inside the checkout; its output goes to standard error, so the last line of
standard output stays the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(build_root, "perfbench-cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1
    binary = os.path.join(build, "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
