#!/usr/bin/env python3
"""Runs every perfbench workload once and fails on a wrong answer.

    python3 scripts/perfbench_smoke.py [--seconds 2] [--seed 3]

Each workload checks every timed answer against an oracle (store
checksums, in-memory query answers, the batch pipeline; see
perfbench/README.md). This script runs batch_build, query_mix and
live_http through perfbench/run.py and exits non-zero unless each result
line reads "correct": true with "failed": 0. It only invokes perfbench/;
timings are printed, never gated.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("batch_build", "query_mix", "live_http")


def check(workload, line):
    """Returns an error message for a result line, or None when it passes."""
    try:
        result = json.loads(line)
    except ValueError:
        return "%s: result line is not JSON: %r" % (workload, line)
    if result.get("correct") is not True or result.get("failed") != 0:
        return "%s: correct=%r failed=%r (attempted %r)" % (
            workload, result.get("correct"), result.get("failed"),
            result.get("attempted"))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    errors = []
    for workload in WORKLOADS:
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            errors.append("%s: run.py exited with %d" %
                          (workload, run.returncode))
            continue
        error = check(workload, lines[-1])
        if error:
            errors.append(error)
        else:
            print("perfbench_smoke: %s ok" % workload)
    for error in errors:
        print("perfbench_smoke: " + error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
