#!/usr/bin/env python3
"""Compares two sets of saved benchmark runs, per workload and metric.

  python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of runs of perfbench/run.py, one
file per run (for example `run.py --workload hot_keys --seed 3 ... >
base/hot_keys_3.txt`). For every workload and end-to-end metric it prints
both medians and quartiles and whether the new median is worse than the
base median by more than the metric's bound in BENCHMARK.json. A metric whose
base runs spread wider than its bound is reported as unresolved, unless every
new run reads better than every base run.

Runs record the host and build stamp they ran on. If the two sets carry
different stamps, nothing is compared: the command names the difference
and exits with status 2, because a difference in host says nothing about
the code.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """Returns ({stamp json}, {(workload, metric): [values]})."""
    stamps = set()
    values = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l.rstrip("\n") for l in f if l.strip()]
        stamp = next((l[len("host: "):] for l in lines
                      if l.startswith("host: ")), None)
        workload = next((l.split()[1] for l in lines
                         if l.startswith("workload: ")), None)
        if stamp is None or workload is None or not lines[-1].startswith("{"):
            print(f"skipping {path}: not a benchmark run", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"skipping {path}: run reported incorrect answers",
                  file=sys.stderr)
            continue
        stamps.add(stamp)
        for metric, v in result["metrics"].items():
            values.setdefault((workload, metric), []).append(v["value"])
    return stamps, values


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base_stamps, base = load(sys.argv[1])
    new_stamps, new = load(sys.argv[2])
    if not base_stamps or not new_stamps:
        print("no runs to compare", file=sys.stderr)
        return 1
    if len(base_stamps | new_stamps) != 1:
        print("host stamps differ; not compared:", file=sys.stderr)
        for s in sorted(base_stamps | new_stamps):
            print(f"  {s}", file=sys.stderr)
        return 2
    flagged = 0
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        if metric not in spec:
            continue
        m = spec[metric]
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b if b else 0.0
        lower = m["better"] == "lower"
        regress = change if lower else -change
        bq, nq = quartiles(base[key]), quartiles(new[key])
        all_better = (max(new[key]) < min(base[key]) if lower
                      else min(new[key]) > max(base[key]))
        if regress > m["bound"]:
            verdict = "worse beyond bound"
        elif b and (bq[1] - bq[0]) / b > m["bound"] and not all_better:
            verdict = "unresolved (base spread exceeds bound)"
        else:
            verdict = "ok"
        flagged += verdict != "ok"
        print(f"{workload:10s} {metric:16s} base {b:.6g} [{bq[0]:.6g}, "
              f"{bq[1]:.6g}] new {n:.6g} [{nq[0]:.6g}, {nq[1]:.6g}] "
              f"{change:+.2%} (bound {m['bound']:.0%}) {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
