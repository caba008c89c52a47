#!/usr/bin/env python3
"""Regression guard over the checked-in benchmark snapshot.

Re-runs the guarded perf_toolkit benchmarks and fails (exit 1) when any of
them regresses by more than --factor against the recorded baseline in
BENCH_perf_toolkit.json. Registered as the `bench_guard` ctest in optimised
builds only — debug timings would trip the guard on every run, and the
recording side (bench/record_bench.cmake) refuses debug numbers for the
same reason.

Throughput benchmarks (items_per_second in both runs) are compared on
throughput; everything else on real_time. The factor is deliberately loose
(default 2x): the snapshot is recorded on a small, noisy container, and the
guard exists to catch engine-level regressions (an accidental fallback to a
slower path, a lost cache), not single-digit-percent drift.

On a host with at least 4 CPUs the guard also checks that the query
service scales: BM_ServiceThroughput at 4 threads must reach 2.5x its
1-thread throughput, each taken as the median of 7 repetitions. Single runs
on a shared 4-vCPU host swing by up to 2.5x minutes apart, so the
repetitions of both thread counts are run in random interleaved order: a
few seconds of contention from other tenants then lands on a minority of
each side's repetitions instead of on every 4-thread one. This is a ratio
measured on the host the guard runs on, so it needs no baseline.

Usage:
  bench_guard.py --binary <perf_toolkit> --baseline <BENCH_perf_toolkit.json>
                 [--filter REGEX] [--factor 2.0] [--min-time 0.25]
                 [--obs-filter REGEX]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

SCALING_BENCH = "BM_ServiceThroughput/real_time/threads:{}"
SCALING_THREADS = 4
SCALING_MIN_RATIO = 2.5
SCALING_REPETITIONS = 7


def load_benchmarks(doc):
    """name -> benchmark dict, aggregates and error runs excluded."""
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate" or "error_occurred" in bench:
            continue
        out[bench["name"]] = bench
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument(
        "--filter",
        default=r"BM_EnumerateFig1|BM_ServiceThroughput/real_time/threads:1$"
                r"|BM_BatchVsSingle|BM_EasScoreBatch|BM_EnumerateNestedCalls"
                r"|BM_EnumerateDepth/(8|12)$")
    parser.add_argument("--factor", type=float, default=2.0)
    parser.add_argument("--min-time", type=float, default=0.25)
    parser.add_argument(
        "--obs-filter", default=r"BM_ServiceMixedThroughput",
        help="benchmark(s) whose obs_overhead_ratio must stay under the "
             "1%% telemetry budget; empty string skips the check")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    build_type = baseline_doc.get("context", {}).get("repo_build_type", "")
    if build_type not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        print(f"bench_guard: baseline {args.baseline} has repo_build_type="
              f"{build_type!r}; re-record it with the bench_json target",
              file=sys.stderr)
        return 1
    baseline = load_benchmarks(baseline_doc)

    def run_doc(bench_filter, repetitions=1):
        with tempfile.NamedTemporaryFile(suffix=".json") as out:
            subprocess.run(
                [args.binary,
                 f"--benchmark_filter={bench_filter}",
                 f"--benchmark_min_time={args.min_time}",
                 f"--benchmark_repetitions={repetitions}",
                 "--benchmark_enable_random_interleaving="
                 f"{'true' if repetitions > 1 else 'false'}",
                 "--benchmark_out_format=json",
                 f"--benchmark_out={out.name}"],
                check=True, stdout=subprocess.DEVNULL)
            with open(out.name) as f:
                return json.load(f)

    def run_benchmarks(bench_filter):
        return load_benchmarks(run_doc(bench_filter))

    current = run_benchmarks(args.filter)

    pattern = re.compile(args.filter)
    guarded = {name: bench for name, bench in current.items()
               if pattern.search(name)}
    if not guarded:
        print(f"bench_guard: filter {args.filter!r} matched no benchmarks",
              file=sys.stderr)
        return 1

    failures = []
    for name, bench in sorted(guarded.items()):
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: not in baseline — re-record bench_json")
            continue
        if "items_per_second" in bench and "items_per_second" in base:
            was, now = base["items_per_second"], bench["items_per_second"]
            ratio = was / now if now > 0 else float("inf")
            detail = (f"throughput {now:,.0f}/s vs baseline {was:,.0f}/s "
                      f"({ratio:.2f}x slower)")
        else:
            was, now = base["real_time"], bench["real_time"]
            unit = bench.get("time_unit", "ns")
            ratio = now / was if was > 0 else float("inf")
            detail = (f"real_time {now:.1f}{unit} vs baseline {was:.1f}{unit} "
                      f"({ratio:.2f}x slower)")
        verdict = "FAIL" if ratio > args.factor else "ok"
        print(f"bench_guard: [{verdict}] {name}: {detail} "
              f"(limit {args.factor:.2f}x)")
        if ratio > args.factor:
            failures.append(f"{name}: {detail}")

    # Self-accounted telemetry budget: the observability layer must stay
    # under 1% of the steady-state service work it observed. The bound is
    # asserted on the serve-shaped mixed-traffic benchmark in a dedicated
    # pass (a pure cache-hit stream is too cheap per query for a fixed-rate
    # 1% budget to be meaningful — see BM_ServiceMixedThroughput). This is
    # an absolute bound, not a baseline comparison, so it needs no
    # re-recording.
    if args.obs_filter:
        obs_checked = 0
        for name, bench in sorted(run_benchmarks(args.obs_filter).items()):
            obs_ratio = bench.get("obs_overhead_ratio")
            if obs_ratio is None:
                continue
            obs_checked += 1
            verdict = "FAIL" if obs_ratio >= 0.01 else "ok"
            print(f"bench_guard: [{verdict}] {name}: obs_overhead_ratio "
                  f"{obs_ratio:.6f} (budget < 0.01)")
            if obs_ratio >= 0.01:
                failures.append(
                    f"{name}: obs_overhead_ratio {obs_ratio:.6f} >= 0.01")
        if obs_checked == 0:
            failures.append(
                f"obs filter {args.obs_filter!r} matched no benchmark "
                "exporting obs_overhead_ratio")

    # Multi-core scaling of the cache-hit path, on hosts that have the cores
    # (os.cpu_count() is the num_cpus google-benchmark records).
    num_cpus = os.cpu_count() or 1
    if num_cpus < SCALING_THREADS:
        print(f"bench_guard: [skip] scaling check needs >= {SCALING_THREADS} "
              f"CPUs, host has {num_cpus}")
    else:
        one = SCALING_BENCH.format(1)
        many = SCALING_BENCH.format(SCALING_THREADS)
        doc = run_doc(f"^({re.escape(one)}|{re.escape(many)})$",
                      repetitions=SCALING_REPETITIONS)

        def median_rate(name):
            rates = [b["items_per_second"] for b in doc.get("benchmarks", [])
                     if b["name"] == name
                     and b.get("run_type") != "aggregate"
                     and "error_occurred" not in b]
            return statistics.median(rates) if rates else 0.0

        rate_one, rate_many = median_rate(one), median_rate(many)
        ratio = rate_many / rate_one if rate_one > 0 else 0.0
        ok = ratio >= SCALING_MIN_RATIO
        detail = (f"{many} {rate_many:,.0f}/s vs {one} {rate_one:,.0f}/s = "
                  f"{ratio:.2f}x (median of {SCALING_REPETITIONS}, need >= "
                  f"{SCALING_MIN_RATIO}x on {num_cpus} CPUs)")
        print(f"bench_guard: [{'ok' if ok else 'FAIL'}] scaling: {detail}")
        if not ok:
            failures.append(f"scaling: {detail}")

    if failures:
        print(f"bench_guard: {len(failures)} check(s) failed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
