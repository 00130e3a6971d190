#!/usr/bin/env python3
"""Compares udrbench results of a parent commit and a change.

  python3 bench/udrbench/compare.py --parent p1.json ... --change c1.json ...

Each file is a udrbench_result.json (run.py without --workload); the runs
of all files on one side are pooled per workload and metric, and run i of
the parent is paired with run i of the change (give both sides the same
seeds in the same order). For every workload x metric it prints
each side's median and quartiles and a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range -- or every change run beats every
              parent run;
  unresolved  the run-to-run spread (interquartile range over median) of
              either side is wider than the metric's bound;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

Host-time metrics take their bound and direction from BENCHMARK.json.
Modelled and count metrics are deterministic for a seed, so their bound is
0: any pair that differs is a change, and the medians say which way.
Per-layer metrics have no bound; they are listed with their deltas only.
Exits 1 when any verdict is "worse".
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GAIN_PAIR_SHARE = 0.9
DETERMINISTIC = ("modelled", "count")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is better than value b."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction, bound, deterministic=False):
    """Verdict of one workload x metric; see the module docstring."""
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    pairs = list(zip(parent, change))
    if deterministic:
        if all(p == c for p, c in pairs) and p_med == c_med:
            return "unchanged"
        return "improved" if better(c_med, p_med, direction) else "worse"
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if all_better or (wins >= math.ceil(GAIN_PAIR_SHARE * len(pairs)) and
                      abs(c_med - p_med) > p_q3 - p_q1 and
                      better(c_med, p_med, direction)):
        return "improved"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if spread > bound:
        return "unresolved"
    worse_by = (p_med - c_med) if direction == "higher" else (c_med - p_med)
    if worse_by > bound * abs(p_med):
        return "worse"
    return "unchanged"


def load(paths):
    """{workload: {metric: {"values": [...], "basis": str, "unit": str}}}."""
    out = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        for run in result["runs"]:
            per_metric = out.setdefault(run["workload"], {})
            for name, row in run["metrics"].items():
                entry = per_metric.setdefault(
                    name, {"values": [], "basis": row["basis"], "unit": row["unit"]})
                entry["values"].append(row["value"])
    return out


def compare(parent, change, spec):
    """Rows of (workload, metric, parent stats, change stats, verdict)."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for name in sorted(set(parent[workload]) & set(change[workload])):
            p = parent[workload][name]
            c = change[workload][name]
            if name in e2e:
                v = verdict(p["values"], c["values"], e2e[name]["better"],
                            e2e[name]["bound"])
            elif name not in per_layer and p["basis"] in DETERMINISTIC:
                v = verdict(p["values"], c["values"], "lower", 0.0,
                            deterministic=True)
            else:
                v = "-"
            rows.append((workload, name, p["values"], c["values"], v))
    return rows


def describe(values):
    q1, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (statistics.median(values), q1, q3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare(load(args.parent), load(args.change), spec)
    print("%-20s %-30s %-34s %-34s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "verdict"))
    for workload, name, p, c, v in rows:
        p_med = statistics.median(p)
        delta = (statistics.median(c) - p_med) / abs(p_med) if p_med else 0.0
        print("%-20s %-30s %-34s %-34s %+7.2f%%  %s" % (
            workload, name, describe(p), describe(c), delta * 100, v))
    return 1 if any(v == "worse" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
