#!/usr/bin/env python3
"""Builds the dispatch-stack benchmark harness and runs one workload.

Run from the root of a checkout:

    python3 dispatchbench/run.py --workload cityb-day --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds the foodmatch library and the harness
(Release) into .bench_build/; later calls rebuild only what changed. The
harness's last stdout line is the result JSON. The exit code is the
harness's, or 2 when the sources are missing or the build fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cityb-day", "cityb-shifts-paced", "grubhub-day")


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("dispatchbench: no foodmatch sources at %s" %
              os.path.join(ROOT, "src"), file=sys.stderr)
        return None
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # One build at a time per checkout; the lock is released on exit.
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        steps.append(["cmake", "--build", BUILD, "--target", "dispatchbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                print("dispatchbench: build step failed: %s" % " ".join(step),
                      file=sys.stderr)
                return None
    return os.path.join(BUILD, "dispatchbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.call(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
