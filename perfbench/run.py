#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload batch_build|query_mix|live_http \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark package (this directory)
compiles the library sources under src/ together with its program into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
the program in a fresh process. Its last line of output is the
result: one JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero, without a result, when the build or the run
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_build", "query_mix", "live_http")
# A run must finish within 180 s.
RUN_BUDGET_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "base", "status.h")):
        sys.exit("perfbench: no library sources under %s" %
                 os.path.join(ROOT, "src"))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "--", "-j4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    workdir = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    started = time.monotonic()
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, universal_newlines=True,
            timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" %
                 (args.workload, RUN_BUDGET_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("perfbench: benchmark exited with %d" % run.returncode)
    print("perfbench: %s seed %d ran %.1f s" %
          (args.workload, args.seed, time.monotonic() - started),
          file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
