#!/usr/bin/env python3
"""Build and run the tuning-session benchmark.

    python3 tunebench/run.py --workload chain_equake --seed 1 --seconds 25 --trace 0
    python3 tunebench/run.py --self-test

Run from the repository root. The first run configures and builds PEAK's
library and the benchmark with CMake into $CARGO_TARGET_DIR/tunebench
(default .bench_build/tunebench); later runs rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the
sources are missing or the build or the arithmetic self-test fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rbr_twolf", "chain_equake", "isolated_swim")
# A run measures --seconds of sessions plus set-up and checks; this bounds
# a run that hangs.
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("PEAK sources not found under %s/src" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A tree configured from another checkout would build that
        # checkout's sources; start over instead.
        key = "CMAKE_HOME_DIRECTORY:INTERNAL="
        with open(cache) as f:
            home = [l[len(key):].strip() for l in f if l.startswith(key)]
        if not home or os.path.realpath(home[0]) != os.path.realpath(HERE):
            log("build tree belongs to another source tree; rebuilding")
            shutil.rmtree(build_dir)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "tunebench",
                  "tunebench_selftest", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run only the arithmetic self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "tunebench"))
    if not build(build_dir):
        return 2
    selftest = subprocess.run([os.path.join(build_dir, "tunebench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        log("arithmetic self-test failed")
        return 1
    if args.self_test:
        return 0

    cmd = [os.path.join(build_dir, "tunebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "work")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
