#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds the standard output of any number of perfbench/run.py runs
(for example `run.py ... | tee -a base.jsonl`); the full-record lines, the
ones with a "workload" key, are read and the rest ignored. Records are joined
on workload and metric. For every metric the script prints one row per
workload: each side's median and quartiles over its runs, and the ratio of
the medians (new / base). With BENCHMARK.json beside perfbench/, a row whose
median got worse by more than the metric's bound is marked WORSE and the
exit status is 1. Standard library only.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, metric): [values]} and {metric: unit} from one file."""
    values = defaultdict(list)
    units = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if "workload" not in rec:
                continue
            for name, m in rec["metrics"].items():
                if m["value"] is not None:
                    values[(rec["workload"], name)].append(float(m["value"]))
                    units[name] = m["unit"]
    return values, units


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, units = load(argv[1])
    new, new_units = load(argv[2])
    units.update(new_units)
    limits = bounds()
    keys = sorted(set(base) & set(new), key=lambda k: (k[1], k[0]))
    if not keys:
        print("no workload and metric in common", file=sys.stderr)
        return 2
    worse = 0
    metric = None
    for workload, name in keys:
        if name != metric:
            metric = name
            print(f"\n{name} [{units[name]}]")
            print(f"  {'workload':<18} {'n':>3} {'base q1':>12} {'base med':>12}"
                  f" {'base q3':>12} {'n':>3} {'new q1':>12} {'new med':>12}"
                  f" {'new q3':>12} {'ratio':>7}")
        b = quartiles(base[(workload, name)])
        n = quartiles(new[(workload, name)])
        ratio = n[1] / b[1] if b[1] else float("nan")
        flag = ""
        spec = limits.get(name)
        if spec is not None and b[1]:
            lower = spec["better"] == "lower"
            change = (n[1] - b[1]) / abs(b[1]) * (1 if lower else -1)
            if change > spec["bound"]:
                flag = "  WORSE"
                worse += 1
        print(f"  {workload:<18} {len(base[(workload, name)]):>3}"
              f" {b[0]:>12.6g} {b[1]:>12.6g} {b[2]:>12.6g}"
              f" {len(new[(workload, name)]):>3}"
              f" {n[0]:>12.6g} {n[1]:>12.6g} {n[2]:>12.6g} {ratio:>7.3f}{flag}")
    if worse:
        print(f"\n{worse} row(s) worse than the bound in BENCHMARK.json")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
