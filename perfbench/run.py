#!/usr/bin/env python3
"""Wall-clock benchmark of FLIPC's real-thread assembly.

Builds flipc_perfbench from this checkout's sources (first use only), runs
one workload and passes its output through. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0

--workload all runs every workload in turn. --inject (see selftest.py)
plants a fault that an output check must catch. The build goes to
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, under the
current directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pingpong", "stream", "fanin")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def declared_run_seconds():
    """run_seconds from BENCHMARK.json, the run length the bounds were set at."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["run_seconds"]


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def configured_for_here(build):
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        return any(line.strip() == "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE for line in f)


def build():
    """Configures (once per checkout) and builds; returns the binary path."""
    build = build_dir()
    if not configured_for_here(build):
        shutil.rmtree(build, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build, "--target", "flipc_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build, "flipc_perfbench")


def run_one(binary, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject != "none":
        cmd += ["--inject", args.inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="none",
                        choices=("none", "short-sink", "swap-seq", "flip-byte", "skip-record"))
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = declared_run_seconds()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        try:
            code = run_one(binary, args, workload)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S}s", file=sys.stderr)
            code = 4
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
