#!/usr/bin/env python3
"""Steadiness check and A/B comparison for the perf benchmark.

Runs each workload of BENCHMARK.json repeatedly, one seed per run, and prints
each metric's median, quartiles and interquartile spread (as a share of the
median). A metric whose spread exceeds its bound in BENCHMARK.json is flagged
and makes the script exit 1. With --sets 2 the whole set of runs is made
twice, and a metric whose second median is worse than its first by more than
its bound is flagged as well: the check that two sets of runs of the same
code agree.

    python3 perfbench/steadiness.py                       # 10 seeds, all workloads
    python3 perfbench/steadiness.py --runs 1              # every metric, once
    python3 perfbench/steadiness.py --runs 5 --workload yago-lossy
    python3 perfbench/steadiness.py --sets 2              # two sets must agree
    python3 perfbench/steadiness.py --baseline ../parent  # parent-vs-change pairs

With --baseline DIR (a checkout of the parent commit holding the same
benchmark files), every seed runs on both trees, alternating which goes
first, and the report gives each side's median and quartiles, the share of
pairs the change wins, and whether the change is worse than the parent by
more than the metric's bound. Run from the repository root.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(root, spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} failed in {root} "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["error_rate"] = result["failed"] / result["attempted"]
    steal = re.search(r"host steal: ([0-9.]+)% .* kept (\d+) of (\d+)",
                      proc.stdout)
    values["host_steal_pct"] = float(steal.group(1)) if steal else 0.0
    values["windows"] = f"{steal.group(2)}/{steal.group(3)}" if steal else "?"
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def bounds_of(spec, trace):
    if trace:
        return {m["name"]: None for m in spec["per_layer"]}
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def better_of(spec):
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def units_of(spec):
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def worse_by(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`."""
    worse = (after - before) / abs(before) if before else 0.0
    return worse if better == "lower" else -worse


def report_steadiness(label, runs, bounds, units):
    flagged = []
    print(f"\n== {label}: {len(runs)} runs")
    print(f"  {'metric':30} {'unit':>8} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        q1, q2, q3 = quartiles(values)
        s = spread(values)
        mark = ""
        if bound is not None:
            if s > bound:
                mark = "  FLAG: spread above bound"
                flagged.append(f"{label}/{name}")
            elif s > bound / 3:
                mark = "  (above a third of the bound)"
        bound_text = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"  {name:30} {units[name]:>8} {q2:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {s:8.3f} {bound_text}{mark}")
    # A failed query fails its run, so this reads 0 whenever it prints.
    print(f"  {'error_rate':30} {'fraction':>8} "
          f"{max(r['error_rate'] for r in runs):12.6g}  (highest of the runs)")
    # Steal share of the kept timed windows, and kept/measured windows.
    print(f"  {'host steal % (windows kept)':30} " +
          " ".join(f"{r['host_steal_pct']:.1f}({r['windows']})" for r in runs))
    return flagged


def report_shift(workload, first, later, set_no, bounds, better):
    """Flags every metric whose median in set `set_no` is worse than its
    median in the first set by more than its bound."""
    flagged = []
    print(f"\n== {workload}: set {set_no} against set 1")
    print(f"  {'metric':30} {'set 1 median':>13} {'set median':>13} "
          f"{'worse by':>9} {'bound':>6}")
    for name, bound in bounds.items():
        before = statistics.median(r[name] for r in first)
        after = statistics.median(r[name] for r in later)
        worse = worse_by(before, after, better.get(name))
        mark = ""
        if bound is not None and worse > bound:
            mark = "  FLAG: worse than bound"
            flagged.append(f"{workload}/{name} (set {set_no})")
        bound_text = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"  {name:30} {before:13.6g} {after:13.6g} {worse:9.3f} "
              f"{bound_text}{mark}")
    return flagged


def report_pairs(workload, base_runs, change_runs, bounds, better):
    flagged = []
    print(f"\n== {workload}: {len(base_runs)} parent/change pairs")
    print(f"  {'metric':30} {'parent med':>11} {'[q1, q3]':>23} "
          f"{'change med':>11} {'[q1, q3]':>23} {'wins':>6}  verdict")
    for name, bound in bounds.items():
        base = [r[name] for r in base_runs]
        change = [r[name] for r in change_runs]
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        lower = better.get(name) == "lower"
        wins = sum(1 for b, c in zip(base, change)
                   if (c < b if lower else c > b))
        worse = worse_by(b2, c2, better.get(name))
        verdict = ""
        if bound is not None:
            if worse > bound:
                verdict = "WORSE than bound"
                flagged.append(f"{workload}/{name}")
            elif spread(base) > bound and not (
                    min(change) > max(base) if not lower
                    else max(change) < min(base)):
                verdict = "unresolved (parent spread above bound)"
            else:
                verdict = "within bound"
        if wins >= 0.9 * len(base) and abs(c2 - b2) > (b3 - b1):
            verdict += " gain"
        print(f"  {name:30} {b2:11.5g} [{b1:10.5g}, {b3:10.5g}] "
              f"{c2:11.5g} [{c1:10.5g}, {c3:10.5g}] "
              f"{wins:3d}/{len(base):<2d} {verdict}")
    return flagged


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat every workload's runs; each later set "
                             "is compared with the first")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path,
                        help="checkout of the parent commit (A/B mode)")
    parser.add_argument("--out", type=Path, help="write raw values as JSON")
    args = parser.parse_args()

    spec = load_spec(ROOT)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = bounds_of(spec, args.trace)
    seeds = range(1, args.runs + 1)
    raw = {}
    flagged = []
    if args.baseline is None:
        sets = []
        for k in range(args.sets):
            runs_by_workload = {}
            for workload in workloads:
                runs = [run_once(ROOT, spec, workload, seed, args.trace)
                        for seed in seeds]
                runs_by_workload[workload] = runs
                label = workload if args.sets == 1 else f"{workload}, set {k + 1}"
                flagged += report_steadiness(label, runs, bounds,
                                             units_of(spec))
            sets.append(runs_by_workload)
            raw[f"set{k + 1}"] = runs_by_workload
        for k in range(1, len(sets)):
            for workload in workloads:
                flagged += report_shift(workload, sets[0][workload],
                                        sets[k][workload], k + 1, bounds,
                                        better_of(spec))
    else:
        for workload in workloads:
            change_runs, base_runs = [], []
            for i, seed in enumerate(seeds):
                order = [(ROOT, change_runs), (args.baseline, base_runs)]
                if i % 2:
                    order.reverse()
                for root, sink in order:
                    sink.append(run_once(root, spec, workload, seed,
                                         args.trace))
            raw[workload] = {"change": change_runs, "parent": base_runs}
            flagged += report_pairs(workload, base_runs, change_runs, bounds,
                                    better_of(spec))
    if args.out:
        args.out.write_text(json.dumps(raw, indent=1))
    if flagged:
        print("\nflagged: " + ", ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
