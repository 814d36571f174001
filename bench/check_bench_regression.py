#!/usr/bin/env python3
"""CI smoke gate against benchmark regressions.

Compares benchmark JSON results against a committed baseline and fails
(exit 1) when any gated benchmark regresses by more than the threshold.
Five row kinds are gated:

  * cpu_time rows (lower is better): regression when
      current > baseline * (1 + threshold)
  * qps rows (higher is better, emitted by bench_serving_throughput):
      regression when current < baseline / (1 + threshold)
  * count rows ("join_attempts", the FeaturesJoinable probe counter that
      bench_micro_core attaches to its chain-join rows; lower is better):
      regression when current > baseline. Counts are exact and do not
      depend on the machine, so they take no threshold slack.
  * ratio rows ({"numerator", "denominator", "min_ratio"}): regression
      when numerator/denominator (wall time by default, cpu time with
      "metric": "cpu", CPU-time QPS with "metric": "qps", search-tree
      node counts with "metric": "nodes") falls below min_ratio. These gate a *relative* property — e.g. "greedy
      matching orders must keep >= 1.05x the search-tree nodes of the DP
      plans", or "coalescing must keep >= 1.5x the CPU-QPS of its
      ablation on a dup-heavy stream" — so they are immune to
      machine-speed drift and take no threshold slack.
  * exact rows ({"name", "exact": {counter: value}}): regression when a
      pinned count reads anything else, higher or lower, in any
      repetition. These pin the search kernels' output sizes (LPMs,
      surviving features, materialized partials, crossing matches,
      search-tree nodes): a lost one is as wrong as an extra one.

The baseline carries absolute numbers from a known machine, so the
threshold is deliberately loose — the gate exists to catch
order-of-magnitude mistakes (an accidentally quadratic hot path, a debug
assert left in a loop), not single-digit-percent drift.

Usage:
  check_bench_regression.py --baseline bench/baseline_ci.json \
      --results results.json [--results serving.json ...] [--threshold 0.30]

Regenerate the cpu_time baseline rows by running bench_micro_core with
--benchmark_format=json on a quiet machine and copying each cpu_time into
cpu_time_ns (and each join_attempts counter as is); regenerate the qps rows
from bench_serving_throughput --json.
"""

import argparse
import json
import sys


def load_metrics(path):
    """Returns {benchmark name: {"cpu_ns": best, "qps": best}}, keeping the
    noise-resistant statistic per name (minimum cpu time, maximum qps). With
    --benchmark_repetitions google-benchmark emits one entry per repetition
    plus aggregates ("name_mean", ...); aggregate rows are dropped."""
    with open(path) as f:
        doc = json.load(f)
    metrics = {}
    for bench in doc["benchmarks"]:
        # google-benchmark output ("cpu_time" + "time_unit"), the
        # hand-written baseline ("cpu_time_ns") and serving-bench rows
        # ("qps") are all accepted.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("run_name", bench["name"])
        entry = metrics.setdefault(name, {})
        ns = None
        if "cpu_time_ns" in bench:
            ns = float(bench["cpu_time_ns"])
        elif "cpu_time" in bench:
            unit = bench.get("time_unit", "ns")
            scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
            ns = float(bench["cpu_time"]) * scale
        if ns is not None:
            entry["cpu_ns"] = min(ns, entry.get("cpu_ns", float("inf")))
        real_ns = None
        if "real_time_ns" in bench:
            real_ns = float(bench["real_time_ns"])
        elif "real_time" in bench:
            unit = bench.get("time_unit", "ns")
            scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
            real_ns = float(bench["real_time"]) * scale
        if real_ns is not None:
            entry["real_ns"] = min(real_ns, entry.get("real_ns", float("inf")))
        if "qps" in bench:
            entry["qps"] = max(float(bench["qps"]), entry.get("qps", 0.0))
        if "join_attempts" in bench:
            entry["join_attempts"] = min(
                float(bench["join_attempts"]),
                entry.get("join_attempts", float("inf")))
        if "nodes" in bench:
            # Search-tree node counts (bench_ablation_ordering): exact and
            # deterministic, so min/max merging is moot; min keeps the shape
            # of the other lower-is-better metrics.
            entry["nodes"] = min(float(bench["nodes"]),
                                 entry.get("nodes", float("inf")))
        # Every value each numeric field took, for the exact rows.
        counts = entry.setdefault("counts", {})
        for key, value in bench.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counts.setdefault(key, set()).add(float(value))
    return metrics


def load_ratio_rows(path):
    """Returns the baseline's ratio rows ({"numerator", "denominator",
    "min_ratio", optional "metric"}), which gate one benchmark's time
    against another's instead of against an absolute number."""
    with open(path) as f:
        doc = json.load(f)
    return [b for b in doc["benchmarks"] if "min_ratio" in b]


def load_exact_rows(path):
    """Returns the baseline's exact rows ({"name", "exact": {counter:
    value}}), whose counts must match exactly."""
    with open(path) as f:
        doc = json.load(f)
    return [b for b in doc["benchmarks"] if "exact" in b]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--results", required=True, action="append",
                        help="results JSON; repeat to merge several files")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    args = parser.parse_args()

    baseline = load_metrics(args.baseline)
    results = {}
    for path in args.results:
        for name, entry in load_metrics(path).items():
            merged = results.setdefault(name, {})
            if "cpu_ns" in entry:
                merged["cpu_ns"] = min(entry["cpu_ns"],
                                       merged.get("cpu_ns", float("inf")))
            if "real_ns" in entry:
                merged["real_ns"] = min(entry["real_ns"],
                                        merged.get("real_ns", float("inf")))
            if "qps" in entry:
                merged["qps"] = max(entry["qps"], merged.get("qps", 0.0))
            if "nodes" in entry:
                merged["nodes"] = min(entry["nodes"],
                                      merged.get("nodes", float("inf")))
            if "join_attempts" in entry:
                merged["join_attempts"] = min(
                    entry["join_attempts"],
                    merged.get("join_attempts", float("inf")))
            for key, values in entry["counts"].items():
                merged.setdefault("counts", {}).setdefault(
                    key, set()).update(values)

    failures = []
    limit = 1.0 + args.threshold
    print(f"{'benchmark':<28} {'metric':>6} {'baseline':>12} {'current':>12} "
          f"{'ratio':>8}")
    for name, base in sorted(baseline.items()):
        # Each baseline row gates the metrics it declares; exact counts get
        # no slack.
        for metric, label, unit, better_high, allowed in (
                ("cpu_ns", "cpu_ns", "ns", False, limit),
                ("qps", "qps", "q/s", True, limit),
                ("join_attempts", "probes", "", False, 1.0)):
            if metric not in base:
                continue
            base_v = base[metric]
            cur = results.get(name, {})
            if metric not in cur:
                failures.append(f"{name} [{metric}]: missing from results")
                print(f"{name:<28} {label:>6} {base_v:>10.0f}{unit:<2} "
                      f"{'MISSING':>12}")
                continue
            cur_v = cur[metric]
            # Normalize so ratio > limit always means "regressed".
            ratio = (base_v / cur_v) if better_high else (cur_v / base_v)
            verdict = "" if ratio <= allowed else "  REGRESSED"
            print(f"{name:<28} {label:>6} {base_v:>10.0f}{unit:<2} "
                  f"{cur_v:>10.0f}{unit:<2} {ratio:>8.2f}{verdict}")
            if ratio > allowed:
                failures.append(
                    f"{name} [{metric}]: {cur_v:.0f}{unit} vs baseline "
                    f"{base_v:.0f}{unit} ({ratio:.2f}x > {allowed:.2f}x)")

    for row in load_ratio_rows(args.baseline):
        metric = {"cpu": "cpu_ns", "qps": "qps",
                  "nodes": "nodes"}.get(row.get("metric"), "real_ns")
        name = row.get("name", f"{row['numerator']}/{row['denominator']}")
        num = results.get(row["numerator"], {}).get(metric)
        den = results.get(row["denominator"], {}).get(metric)
        if num is None or den is None:
            missing = row["numerator"] if num is None else row["denominator"]
            failures.append(f"{name} [ratio]: {missing} missing from results")
            print(f"{name:<28} {'ratio':>6} {row['min_ratio']:>10.2f}x  "
                  f"{'MISSING':>12}")
            continue
        ratio = num / den
        verdict = "" if ratio >= row["min_ratio"] else "  REGRESSED"
        print(f"{name:<28} {'ratio':>6} {row['min_ratio']:>10.2f}x  "
              f"{ratio:>10.2f}x {verdict}")
        if ratio < row["min_ratio"]:
            failures.append(
                f"{name} [ratio]: {row['numerator']} / {row['denominator']} "
                f"= {ratio:.2f}x < required {row['min_ratio']:.2f}x")

    for row in load_exact_rows(args.baseline):
        name = row["name"]
        for counter, want in sorted(row["exact"].items()):
            seen = results.get(name, {}).get("counts", {}).get(counter)
            if not seen:
                failures.append(f"{name} [{counter}]: missing from results")
                print(f"{name:<28} {'exact':>6} {want:>12} {'MISSING':>12}")
                continue
            got = ", ".join(f"{v:.0f}" for v in sorted(seen))
            verdict = "" if seen == {float(want)} else "  CHANGED"
            print(f"{name:<28} {'exact':>6} {want:>12} {got:>12}{verdict}")
            if verdict:
                failures.append(f"{name} [{counter}]: read {got}, pinned at "
                                f"exactly {want}")

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
