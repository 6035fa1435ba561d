#!/usr/bin/env python3
"""Runs one workload of the tms serving benchmark.

    python3 perfbench/run.py --workload rfid_topk --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
tms_server and the benchmark program tms_perfbench
(perfbench/CMakeLists.txt) into .bench_build/; later runs rebuild
incrementally. The program prints every metric by name and unit, and as
its last line one JSON object with the keys correct, attempted, failed
and metrics. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("rfid_topk", "batch_exact", "long_sparse")
RUN_TIMEOUT_S = 175


def build(root, build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "tms_server", "tms_perfbench"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                # A failed configure leaves a cache behind; drop it so the
                # next run configures again.
                if step[1] == "-S":
                    cache = os.path.join(build_dir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                print("build failed: " + " ".join(step) + " (see " + log_path + ")",
                      file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    if not build(root, build_dir):
        return 1

    work_dir = os.path.join(build_dir, "runs",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "tms_perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--server=" + os.path.join(build_dir, "tms", "tools", "tms_server"),
        "--work-dir=" + work_dir,
        "--trace-out=" + os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed)),
    ]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
