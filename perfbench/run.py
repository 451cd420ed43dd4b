#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the deployed NNF node.

    python3 perfbench/run.py --workload cpe_1408 --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (an optimised Release build of the
repository's library sources plus the benchmark) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
benchmark binary. Build output goes to stderr; the benchmark's stdout is
passed through unchanged, so its last line is the result JSON object.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "node.hpp")):
        sys.stderr.write("perfbench: the node's sources (src/) are not next "
                         "to perfbench/; nothing to build\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    command = [os.path.join(out_dir, "perfbench_node"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            out_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
