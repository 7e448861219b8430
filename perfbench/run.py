#!/usr/bin/env python3
"""Build and run the hds end-to-end benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload bulk-u64 --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench at the repository root, runs one workload, and leaves
the per-sort samples, span trace and summary in
.bench_results/<workload>-seed<seed>-trace<0|1>/. The last line of stdout is
the benchmark's JSON result; build output goes to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("bulk-u64", "hist-fewdistinct", "rec64-skewed")
DEFAULT_SEED = 1  # seed 2 is held out for claims (README.md)


def build():
    """Configure (idempotent) and build; returns the path of hds_e2e."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = []  # the cache fixes the generator
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", BUILD, "--parallel", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "hds_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    program = build()
    out = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
