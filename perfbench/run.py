#!/usr/bin/env python3
"""Session benchmark entry point.

    python3 perfbench/run.py --workload <conference|coauthoring|crowd|matrix>
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Builds perfbench/ (and with it the coop
library from src/) into .bench_build/perfbench with CMake, runs the
workload binary, checks the shape of its result and relays its output.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Exits non-zero when the build fails, the binary
fails an output check, or the result is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("conference", "coauthoring", "crowd", "matrix")
DEFAULT_SEED = 1


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout):
    """Runs a build step, sending its output to stderr."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("failed: " + " ".join(cmd))


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and \
            not os.path.isfile(os.path.join(build_dir, "Makefile")):
        cmd += ["-G", "Ninja"]
    run_step(cmd, BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "coop_perfbench")


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are wrong: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a non-negative integer")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or \
                not isinstance(m["value"], (int, float)):
            fail("metric %s is malformed" % name)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    out = proc.stdout.decode(errors="replace")
    lines = out.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail("workload exited %d without a result" % proc.returncode)
    check_result(lines[-1])
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
