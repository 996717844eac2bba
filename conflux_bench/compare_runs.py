#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric.

  python3 conflux_bench/compare_runs.py BASE.jsonl NEW.jsonl

Each file holds the records run.py --out appends, one per run and workload.
For every workload and end-to-end metric of BENCHMARK.json (per-layer
metrics with --per-layer, which have no bound) it prints the median and the
quartiles of each set, and a verdict against the metric's bound:

  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  either set's quartile spread, (q3 - q1) / median, is wider
              than the bound, and not every NEW run beats every BASE run
  ok          otherwise

The exit code is 1 when any metric is worse, else 0. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path, trace):
    """{workload: {metric: [values]}} from the records of one run set."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] != trace:
                continue
            metrics = runs.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    """(median, q1, q3); a single run is its own quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(metric, base, new):
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bmed, bq1, bq3 = summary(base)
    nmed, nq1, nq3 = summary(new)
    bound = metric.get("bound")
    if bound is None:
        return "-"
    if bmed and sign * (nmed - bmed) / abs(bmed) > bound:
        return "worse"
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if max(spread(bmed, bq1, bq3), spread(nmed, nq1, nq3)) > bound and not all_better:
        return "unresolved"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--per-layer", action="store_true",
                    help="compare the --trace 1 per-layer metrics instead")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.per_layer else "end_to_end"]
    trace = 1 if args.per_layer else 0
    base, new = load(args.base, trace), load(args.new, trace)

    worse = False
    print("%-16s %-34s %-7s %5s %12s %12s %12s %12s %8s  %s" % (
        "workload", "metric", "unit", "runs", "base median", "base IQR/med",
        "new median", "new IQR/med", "change", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print("%-16s (missing from %s)" % (name, "base" if name not in base else "new"))
            continue
        for m in metrics:
            b, n = base[name].get(m["name"]), new[name].get(m["name"])
            if not b or not n:
                continue
            bmed, bq1, bq3 = summary(b)
            nmed, nq1, nq3 = summary(n)
            v = verdict(m, b, n)
            worse = worse or v == "worse"
            change = (nmed - bmed) / abs(bmed) if bmed else 0.0
            print("%-16s %-34s %-7s %2d/%-2d %12.6g %12.4f %12.6g %12.4f %+7.2f%%  %s" % (
                name, m["name"], m["unit"], len(b), len(n), bmed, spread(bmed, bq1, bq3),
                nmed, spread(nmed, nq1, nq3), 100.0 * change, v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
