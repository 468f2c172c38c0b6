#!/usr/bin/env python3
r"""Host-time benchmark of the Doppio runtime.

Builds the runtime and the perfbench binary from source (CMake, Release,
into .bench_build/perfbench under the checkout root), then runs one
workload and prints its result as the last line of standard output:

    python3 perfbench/run.py --workload jvm_objects --seed 7 --seconds 10 \
        --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run and writes its spans under .bench_build/perfbench.
Build output goes to standard error. The exit code is nonzero, and no result
is printed, when the build fails or the binary does. See README.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["jvm_objects", "jvm_long", "fs_javac", "serve_files"]
# A stuck binary is killed well before a run reaches three minutes.
RUN_TIMEOUT_S = 170


def build():
    """Configures once and (re)builds the binary; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    # BENCHMARK.json's command carries the default seed as "--seed 1"; a
    # later --seed on the command line wins.
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--expected", str(HERE / "expected")]
    if args.trace:
        cmd += ["--spans",
                str(BUILD / f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: binary timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: binary exited with {done.returncode}",
              file=sys.stderr)
        return done.returncode
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
