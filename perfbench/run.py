#!/usr/bin/env python3
"""Builds and runs the eclarity serving benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload hot_keys --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-check

The first form builds perfbench_load (Release, into .bench_build/perfbench
under the repository root) and runs one workload; its standard output is
passed through, and its last line is the JSON result. The
--self-check form asserts that count metrics repeat exactly for a fixed seed
with one client and a fixed request count, and that every metric named in
BENCHMARK.json is printed with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_load")
WORKLOADS = ["hot_keys", "cold_eval", "batch_swap"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Per-layer metrics that are counts or ratios of counts: with one client and
# a fixed request count they must repeat exactly.
COUNT_METRICS = [
    "eval.bytecode.instructions",
    "svc.snapshot_swaps",
    "svc.cache_hit_ratio",
    "svc.tl_hit_ratio",
    "svc.shard_evictions",
    "eval.outcomes_per_query",
    "eval.bytecode_share",
    "eval.budget_exhausted",
    "eval.analytic_hit_ratio",
    "dist.atoms_per_fold",
    "eval.batch.lanes_per_pass",
    "eval.batch.vector_lane_share",
    "obs.journal_dropped",
]

# Counts that do not repeat, and why. Reported by the self-check, not
# compared.
NOT_REPEATABLE = {
    ("batch_swap", "svc.tl_hit_ratio"):
        "EvaluateBatch folds its misses in groups ordered by EcvProfile "
        "pointer, so which key a thread-local slot keeps depends on heap "
        "addresses",
}


def build():
    """Configures and builds the load generator; output goes to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench_load", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def run_load(args, capture):
    cmd = [BINARY, "--root", ROOT] + args
    done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    return done.returncode, done.stdout


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_check_workload(workload, spec):
    """Returns a list of problems found for one workload."""
    runs = {}
    for trace, rep in (("0", 0), ("1", 0), ("1", 1)):
        code, out = run_load(
            ["--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", trace, "--clients", "1", "--requests", "300"],
            capture=True)
        result = last_json(out) if code == 0 else None
        if result is None or not result["correct"]:
            return [f"trace {trace} run failed (exit {code})"]
        runs[(trace, rep)] = result["metrics"]
    problems = []
    for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        for m in names:
            got = runs[(trace, 0)].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append(f"{m['name']} missing or not in {m['unit']}")
    first, second = runs[("1", 0)], runs[("1", 1)]
    for name in COUNT_METRICS:
        reason = NOT_REPEATABLE.get((workload, name))
        if reason is not None:
            print(f"{workload}: {name} not compared: {reason}")
            continue
        if first[name]["value"] != second[name]["value"]:
            problems.append(f"{name} differs between runs: "
                            f"{first[name]['value']} vs "
                            f"{second[name]['value']}")
    return problems


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        problems = self_check_workload(workload, spec)
        for p in problems:
            print(f"{workload}: {p}")
        print(f"{workload}: self-check {'FAILED' if problems else 'ok'}")
        ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 1
        if args.self_check:
            return 0 if self_check() else 1
        code, _ = run_load(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture=False)
        return code
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: timed out: {e.cmd[0]}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
