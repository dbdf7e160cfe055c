#!/usr/bin/env python3
"""Compares two sets of bench_e2e results, metric by metric and workload by
workload.

    python3 bench_e2e/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the result files run.py writes to .bench_e2e_out/
(<workload>-seed<n>-trace<t>.json); runs of the two sets are paired by
workload, trace mode and seed. For every (metric, workload) it prints one
verdict:

  improved    NEW wins at least 9/10 of the pairs (ties count for neither)
              and the medians differ by more than BASE's own spread (the
              distance between its quartiles);
  worse       the NEW median is worse than the BASE median by more than the
              metric's bound (for a metric without a bound: NEW loses 9/10
              of the pairs by more than BASE's spread);
  unresolved  a run-to-run spread (quartile distance over median) is wider
              than the bound, and not every NEW run beats every BASE run;
  unchanged   otherwise.

Exits 1 when any end-to-end metric is worse or unresolved.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    """{(workload, trace): {seed: metrics}} from one directory."""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        r = json.loads(path.read_text())
        runs[(r["workload"], r["trace"])][r["seed"]] = {
            name: m["value"] for name, m in r["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, pairs, higher_better, bound):
    """One metric on one workload; base/new are value lists, pairs the
    (base, new) values of runs with the same seed."""
    sign = 1.0 if higher_better else -1.0
    med_a = statistics.median(base)
    med_b = statistics.median(new)
    q1_a, q3_a = quartiles(base)
    q1_b, q3_b = quartiles(new)
    iqr_a = q3_a - q1_a
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    beyond_spread = abs(med_b - med_a) > iqr_a
    if pairs and wins >= 0.9 * len(pairs) and beyond_spread:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and beyond_spread:
            return "worse"
        return "unchanged"
    scale = abs(med_a) if med_a else 1.0
    spread = max(iqr_a / scale, (q3_b - q1_b) / (abs(med_b) or 1.0))
    all_better = min(sign * b for b in new) > max(sign * a for a in base)
    all_worse = max(sign * b for b in new) < min(sign * a for a in base)
    worsening = sign * (med_a - med_b) / scale
    if worsening > bound:
        return "worse" if spread <= bound or all_worse else "unresolved"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main():
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(here.parent / "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    metrics = [(m, 0) for m in spec["end_to_end"]] + \
              [(m, 1) for m in spec["per_layer"]]
    base, new = load(args.base), load(args.new)
    failing = False
    print(f"{'workload':15s} {'metric':28s} {'base median':>12s} "
          f"{'new median':>12s} {'change':>8s} {'wins':>6s}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        for m, trace in metrics:
            a_runs, b_runs = base.get((w, trace), {}), new.get((w, trace), {})
            a = [r[m["name"]] for r in a_runs.values() if m["name"] in r]
            b = [r[m["name"]] for r in b_runs.values() if m["name"] in r]
            if not a or not b:
                continue
            pairs = [(a_runs[s][m["name"]], b_runs[s][m["name"]])
                     for s in sorted(set(a_runs) & set(b_runs))]
            v = verdict(a, b, pairs, m["better"] == "higher", m.get("bound"))
            if trace == 0 and v in ("worse", "unresolved"):
                failing = True
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / abs(med_a) * 100 if med_a else 0.0
            wins = sum(1 for x, y in pairs
                       if (y - x) * (1 if m["better"] == "higher" else -1) > 0)
            print(f"{w:15s} {m['name']:28s} {med_a:12.5g} {med_b:12.5g} "
                  f"{change:+7.2f}% {wins:2d}/{len(pairs):<3d}  {v}")
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
