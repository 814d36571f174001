#!/usr/bin/env python3
"""Builds the perf benchmark from source and runs one workload.

    python3 perfbench/run.py --workload lubm-complex --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(incremental after the first run); build logs go to stderr, so the last line
of stdout is the benchmark's JSON result. With --trace 1 the spans of the
traced run are written to .bench_build/spans/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("lubm-complex", "yago-lossy", "serve-zipf")
RUN_TIMEOUT_S = 170


def build():
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR)]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
