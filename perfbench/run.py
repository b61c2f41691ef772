#!/usr/bin/env python3
"""Build and run the dnsnoise benchmark.

    python3 perfbench/run.py --workload dec30_day --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds the library from src/ together with
the benchmark binary (CMake, Release) under $CARGO_TARGET_DIR or
.bench_build, then runs one workload.  The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
start the binary SETUP_RUNS times in all (the extra starts only set up and
exit) and report the median set-up time.  Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dec30_day", "feb01_day")
SETUP_RUNS = 3
RUN_TIMEOUT_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return build_dir


def run_binary(binary, args):
    """Runs the benchmark binary; returns its stdout lines."""
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S}s: {' '.join(args)}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(args)}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("no output")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the harness self-tests and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = build()
    if args.self_test:
        done = subprocess.run([str(build_dir / "perfbench_selftest")])
        sys.exit(done.returncode)

    binary = build_dir / "perfbench"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--fingerprints", str(HERE / "fingerprints")]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_RUNS - 1):
            result = json.loads(run_binary(binary, common + ["--setup-only"])[-1])
            setups.append(result["metrics"]["setup_s"]["value"])

    lines = run_binary(binary, common + ["--seconds", str(args.seconds),
                                         "--trace", str(args.trace)])
    result = json.loads(lines[-1])
    if args.trace == 0:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
