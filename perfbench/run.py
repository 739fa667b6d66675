#!/usr/bin/env python3
"""Builds and runs the end-to-end service benchmark on one workload.

    python3 perfbench/run.py --workload dense_hotspot --seed 1 --seconds 20 --trace 0

Run it from the repository root. It configures and builds perfbench/ (the
library from src/ plus the perfbench_e2e driver, Release) under
.bench_build/perfbench, then runs the driver once, in its own process, and
passes its output through: '#' report lines, a `row {...}` line with the host
block, and as the last line the result object
{"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics instead of the end-to-end ones.

Workloads: dense_hotspot, fine_quadtree, durable_spill (see e2e.cc and
BENCHMARK.json). The exit status is non-zero when the build fails, the
correctness gate fails, or the run exceeds its time limit; build logs go to
standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("dense_hotspot", "fine_quadtree", "durable_spill")
# The driver must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log)
        if configure.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench_e2e"],
        stdout=log, stderr=log)
    if compiled.returncode != 0:
        return None
    binary = os.path.join(BUILD_DIR, "perfbench_e2e")
    return binary if os.path.exists(binary) else None


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """sha256 over src/ (paths and bytes), so rows from a checkout without
    git history still identify the code they measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.join(BUILD_ROOT, "work"),
        "--commit", commit(),
        "--src_digest", src_digest(),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
