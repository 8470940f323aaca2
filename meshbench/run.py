#!/usr/bin/env python3
"""End-to-end benchmark of the LoRaMesher simulator.

Usage, from the repository root:

    python3 meshbench/run.py --workload campus|city \\
        --seed N --seconds S --trace 0|1

Builds meshbench/ (a CMake package that compiles ../src) in Release mode
into $CARGO_TARGET_DIR/meshbench (default .bench_build/meshbench), then
runs the meshbench binary. The binary's last output line is the JSON
result; see meshbench/main.cpp for what each mode measures and
meshbench/metrics.json for every metric's unit, direction and layer.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"meshbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", build_dir, "--target", "meshbench", "-j", jobs]
    # Build chatter goes to stderr: stdout's last line is the result.
    out = {"stdout": sys.stderr, "stderr": sys.stderr, "timeout": BUILD_TIMEOUT_S}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, **out)
    subprocess.run(compile_, check=True, **out)
    return os.path.join(build_dir, "meshbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campus", "city"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {ROOT}/src")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "meshbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
