#!/usr/bin/env python3
"""Builds the perf ledger from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload serve-predict --seed 1 --seconds 10 --trace 0

Workloads: serve-predict, serve-durable, campaign-cold. The build goes to
.bench_build/perfbench (configured once, rebuilt incrementally) and its output
to stderr; ledger files land in .bench_build/ledger. The binary's stdout is
passed through, so the last stdout line is the run's JSON result. Extra
flags (--write-golden) are forwarded to the binary.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LEDGER = os.path.join(ROOT, ".bench_build", "ledger")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no etsc sources next to perfbench/ (expected "
                 f"{os.path.join(ROOT, 'src')}); nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run([cmake, "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-predict", "serve-durable",
                                 "campaign-cold"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as error:
        sys.exit(f"perfbench: build failed ({error})")
    os.makedirs(LEDGER, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--ledger-dir", LEDGER,
               "--golden", os.path.join(HERE, "golden_campaign.csv")] + extra
    started = time.monotonic()
    with subprocess.Popen(command, cwd=ROOT) as process:
        try:
            return process.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S}s "
                     f"({time.monotonic() - started:.0f}s), killed")


if __name__ == "__main__":
    sys.exit(main())
