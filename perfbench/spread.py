#!/usr/bin/env python3
"""Spread report: runs one workload N times and summarises each metric.

    python3 perfbench/spread.py --workload query_mix --runs 10 \
        [--first-seed 1] [--seconds S] [--trace 0|1]

Each run uses the next seed. For every metric the report prints the
median, the first and third quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the largest deviation of
any run from the median as a share of it. End-to-end metrics are
compared with their bound from BENCHMARK.json: the spread must stay
below a third of the bound (setup_s is exempt from the spread rule).
Exits 1 when a run fails, reports a failed operation, or a spread is
too wide.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    """(median, q1, q3, quartile spread / median, max |v - median| / median)."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(median) if median else 1.0
    spread = (q3 - q1) / scale
    deviation = max(abs(v - median) for v in values) / scale
    return median, q1, q3, spread, deviation


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          universal_newlines=True)
    if done.returncode != 0:
        raise RuntimeError("seed %d: run.py exited %d" %
                           (seed, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark = load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    values = {}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d of %d" %
                  (seed, result["correct"], result["failed"],
                   result["attempted"]))
            ok = False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-34s %14s %14s %14s %8s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "maxdev", "bound"))
    for name, series in values.items():
        median, q1, q3, spread, deviation = summarize(series)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and args.trace == 0 and name != "setup_s":
            steady = spread < bound / 3
            ok = ok and spread <= bound
            verdict = "steady" if steady else "NOISY"
        print("%-34s %14.6g %14.6g %14.6g %8.4f %8.4f %6s %s" %
              (name, median, q1, q3, spread, deviation,
               "" if bound is None else "%.2f" % bound, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
