#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BEFORE AFTER [--benchmark BENCHMARK.json]

BEFORE and AFTER are directories of result files written by run.py. For
every workload and end-to-end metric declared in BENCHMARK.json it prints
each side's median and quartiles over its untraced runs, the change of the
medians, and a verdict:

  better      AFTER improved by more than either side's spread;
  same        AFTER is not worse by more than the metric's bound;
  worse       AFTER is worse by more than the bound;
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, and AFTER's runs do not all beat BEFORE's.

Exits 1 when any metric is worse, 2 on unusable input.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """Untraced result documents in `directory`, grouped by workload."""
    runs = {}
    for name in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(name) as f:
            doc = json.load(f)
        if doc.get("schema") != "mgardp-perfbench/1" or doc.get("trace") != 0:
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    return runs


def summary(values):
    """Median and quartiles, as statistics.quantiles(values, n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values):
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(before, after, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    b_med = summary(before)[0]
    a_med = summary(after)[0]
    # Positive: AFTER moved in the worse direction, as a share of BEFORE.
    worse = sign * (a_med - b_med) / abs(b_med) if b_med else 0.0
    noise = max(spread(before), spread(after))
    if noise > bound:
        all_better = all(sign * (a - b) < 0 for a in after for b in before)
        return "better" if all_better else "unresolved"
    if worse > bound:
        return "worse"
    if -worse > noise:
        return "better"
    return "same"


def describe(runs):
    for docs in runs.values():
        h = docs[0]["header"]
        return "host=%s nproc=%s build=%s git=%s" % (
            h.get("host"), h.get("nproc"), h.get("build_type"),
            h.get("git_describe"))
    return "(no runs)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    before = load(args.before)
    after = load(args.after)
    if not before or not after:
        print("compare.py: no untraced result files on one side",
              file=sys.stderr)
        return 2

    print("before: %s" % describe(before))
    print("after:  %s" % describe(after))
    print("%-9s %-17s %5s %28s %28s %8s  %s" % (
        "workload", "metric", "runs", "before median [q1, q3]",
        "after median [q1, q3]", "change", "verdict"))
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in before or workload not in after:
            print("%-9s missing on one side" % workload)
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [d["metrics"][name]["value"] for d in before[workload]]
            a = [d["metrics"][name]["value"] for d in after[workload]]
            v = verdict(b, a, metric["bound"], metric["better"] == "lower")
            any_worse = any_worse or v == "worse"
            b_med, b_q1, b_q3 = summary(b)
            a_med, a_q1, a_q3 = summary(a)
            change = (a_med - b_med) / abs(b_med) * 100 if b_med else 0.0
            print("%-9s %-17s %2d/%-2d %10.4g [%7.4g, %7.4g] "
                  "%10.4g [%7.4g, %7.4g] %+7.1f%%  %s" % (
                      workload, name, len(b), len(a), b_med, b_q1, b_q3,
                      a_med, a_q1, a_q3, change, v))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
