#!/usr/bin/env python3
"""End-to-end benchmark of retask: builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 12 --trace 0

Run from the repository root. The first run configures and builds the
retask library, the retask_serve daemon and the perfbench runner with CMake
into the build directory ($CARGO_TARGET_DIR, default .bench_build); later
runs rebuild only what changed. The runner removes every RETASK_*
environment variable itself, so runtime knobs cannot change what is
measured. The runner's standard output is passed through; its last line is
the JSON result. Any extra arguments (--tiny, --jobs N, ...) are forwarded.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "capacity_plan", "manycore_mp", "admission_serve")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the two targets; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("retask sources (src/) not found next to perfbench/; run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench", "retask_serve"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed; see {log_path}", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-binary", os.path.join(build_dir, "retask_serve"),
        "--trace-dir", os.path.join(build_dir, "traces"),
        "--pinned", os.path.join(HERE, "pinned_digests.txt"),
    ] + extra
    try:
        result = subprocess.run(cmd, timeout=175)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded 175 s", 1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
