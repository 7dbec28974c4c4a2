#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py --out .bench_build/base --seeds 1-10 [--workload stream] [--trace 1]

Each run's result line is saved as <out>/<workload>-trace<t>-seed<n>.json
(the input of compare.py). For every metric the summary prints the median,
the quartiles and the interquartile range as a share of the median, the
figure BENCHMARK.json's bounds are set against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from compare import quartiles
from run import declared_run_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pingpong", "stream", "fanin")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(results):
    """results: {workload: [result dict, ...]} -> printed table."""
    for workload, runs in results.items():
        failed = sum(1 for r in runs if not r["correct"] or r["failed"])
        print(f"== {workload}: {len(runs)} runs, {failed} with failures")
        names = list(runs[0]["metrics"]) if runs else []
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            q1, _, q3 = quartiles(values)
            median = statistics.median(values)
            spread = (q3 - q1) / abs(median) if median else 0.0
            print(f"  {name:40s} median {median:14.6g} {unit:12s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    seconds = args.seconds if args.seconds is not None else declared_run_seconds()
    os.makedirs(args.out, exist_ok=True)
    results = {}
    status = 0
    for workload in args.workload or WORKLOADS:
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            path = os.path.join(args.out, f"{workload}-trace{args.trace}-seed{seed}.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(lines[-1] + "\n")
            results.setdefault(workload, []).append(json.loads(lines[-1]))
    summarize(results)
    return status


if __name__ == "__main__":
    sys.exit(main())
