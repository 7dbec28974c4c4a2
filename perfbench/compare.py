#!/usr/bin/env python3
"""Compares two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result lines as sweep.py saves them
(<workload>-trace<t>-seed<n>.json). Runs are paired in seed order: the
i-th seed of one side with the i-th of the other, which is the same seed
when both sides used the same list. Run the two sides alternately so a
pair shares the host's conditions. For every metric the table gives each
side's median and quartiles, the share of pairs the new side wins (ties
count for neither) and a verdict:

  better      the new side wins at least 9 in 10 pairs and the medians
              differ by more than the base side's interquartile range
  worse       the new median is worse than the base median by more than
              the metric's bound (end-to-end metrics only)
  within      not worse by more than the bound, and the base spread is
              inside the bound
  unresolved  the base runs spread wider than the bound (or, without a
              bound, no gain is shown) and the rules above do not decide
  same/differs  count metrics, compared exactly

Exits 1 when any end-to-end metric is worse.
"""

import argparse
import collections
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^(?P<workload>[A-Za-z0-9_.-]+)-trace(?P<trace>[01])-seed(?P<seed>\d+)\.json$")


def load(directory):
    """-> {(workload, trace): {seed: result}}"""
    sets = collections.defaultdict(dict)
    for entry in sorted(os.listdir(directory)):
        match = NAME.match(entry)
        if not match:
            continue
        with open(os.path.join(directory, entry), encoding="utf-8") as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        sets[(match["workload"], int(match["trace"]))][int(match["seed"])] = result
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, new, better, bound, exact):
    """Applies the rules in the module docstring to two lists of values."""
    b_med, n_med = statistics.median(base), statistics.median(new)
    sign = 1 if better == "higher" else -1
    if exact:
        return "same" if b_med == n_med else "differs", None
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    q1, _, q3 = quartiles(base)
    if share >= 0.9 and abs(n_med - b_med) > q3 - q1 and sign * (n_med - b_med) > 0:
        return "better", share
    if bound is None:
        return "unresolved", share
    worsening = -sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if worsening > bound:
        return "worse", share
    spread = (q3 - q1) / abs(b_med) if b_med else 0.0
    return ("within" if spread <= bound else "unresolved"), share


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base_sets, new_sets = load(args.base), load(args.new)
    worse = False
    for key in sorted(set(base_sets) & set(new_sets)):
        pairs = min(len(base_sets[key]), len(new_sets[key]))
        base_runs = [base_sets[key][s] for s in sorted(base_sets[key])][:pairs]
        new_runs = [new_sets[key][s] for s in sorted(new_sets[key])][:pairs]
        print(f"== {key[0]} (trace {key[1]}), {pairs} pairs")
        for name, first in base_runs[0]["metrics"].items():
            if name not in new_runs[0]["metrics"]:
                continue
            meta = declared.get(name, {})
            unit = first["unit"]
            base = [r["metrics"][name]["value"] for r in base_runs]
            new = [r["metrics"][name]["value"] for r in new_runs]
            result, share = verdict(base, new, meta.get("better", "lower"), meta.get("bound"),
                                    exact=unit == "count")
            worse = worse or (result == "worse" and "bound" in meta)
            bq1, _, bq3 = quartiles(base)
            nq1, _, nq3 = quartiles(new)
            won = "" if share is None else f"wins {share:4.0%}"
            print(f"  {name:36s} {unit:10s} base {statistics.median(base):12.6g} "
                  f"[{bq1:.6g}, {bq3:.6g}]  new {statistics.median(new):12.6g} "
                  f"[{nq1:.6g}, {nq3:.6g}]  {won:9s} {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
