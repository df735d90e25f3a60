#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload table2 --runs 10 [--seconds 20]
        [--first-seed 1] [--trace 0] [--log runs.jsonl]

For each metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, plus the share of failed operations. Runs are sequential.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", default=None)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values, shares = {}, set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(seconds),
                                  "--trace", args.trace]
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=os.path.dirname(HERE),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        wall = time.monotonic() - t0
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, done.returncode))
            return 1
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed,
                                      "wall_s": wall, "result": result}) + "\n")
        shares.add((result["failed"], result["attempted"],
                    result["failed"] / result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %.1f s, %d/%d failed" %
              (seed, wall, result["failed"], result["attempted"]))
    print("failed/attempted seen: %s" % sorted(shares))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        rel = (q3 - q1) / med if med else 0.0
        print("%-30s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/median %.4f" %
              (name, med, q1, q3, rel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
