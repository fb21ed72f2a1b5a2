#!/usr/bin/env python3
"""Build and run the campaign benchmark.

    python3 campaignbench/run.py --workload hot_repeat --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. Builds the repository's src/ libraries
and the benchmark from source into .bench_build/campaignbench (a
no-op once built), runs the benchmark's arithmetic self-test, then
the benchmark itself. The benchmark's standard output is passed
through; its last line is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero when the build, the
self-test or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "campaignbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally. Logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("campaignbench: no src/ next to the benchmark; nothing to "
              "build", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "campaignbench", "campaignbench_test"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"campaignbench: build failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"campaignbench: {' '.join(cmd)} exited "
                  f"{done.returncode}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 1
    test = subprocess.run([str(BUILD / "campaignbench_test")],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, check=False)
    if test.returncode != 0:
        print("campaignbench: arithmetic self-test failed", file=sys.stderr)
        return 1

    cmd = [str(BUILD / "campaignbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"campaignbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("campaignbench: the benchmark printed no result",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or result.get("correct") is not True:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
