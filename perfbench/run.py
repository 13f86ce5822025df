#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <team_search|topic_search|write_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library and the benchmark in Release mode under .bench_build/ (a few minutes);
later calls only check that the build is current. Build output goes to
standard error; the benchmark's last line of standard output is its JSON
result. The exit code is the benchmark's, or non-zero when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("team_search", "topic_search", "write_mix")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no library sources (src/) in " + ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 2
    run_dir = os.path.join(BUILD_DIR, "run", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--run-dir", run_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
