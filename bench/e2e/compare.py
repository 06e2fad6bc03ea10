#!/usr/bin/env python3
"""Compares two stnb_e2e result sets (run.py --out files) metric by metric.

    python3 bench/e2e/compare.py BASE.json NEW.json
        [--benchmark BENCHMARK.json] [--bounds bench/e2e/bounds.json]

Prints one row per (workload, end-to-end metric), judged against that
pair's bound as a share of BASE's median:

  better      NEW improves on BASE by more than the bound
  within      the medians differ by no more than the bound
  worse       NEW is worse than BASE by more than the bound
  unresolved  either side's spread (q3 - q1) is wider than the bound
  n/a         the metric is missing on either side

The metrics, their directions and one bound per metric come from
BENCHMARK.json; bounds.json beside this file holds the tighter bound of
each (metric, workload) pair, with the spread it was set from.
setup_s also has an absolute floor: a difference under 1 ms is within.
A failed_frac row (failed / attempted repetitions) is worse on any rise.
Exits 1 on any worse row.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ABSOLUTE_FLOOR = {"setup_s": 1e-3}


def load_bounds(benchmark_path, workload_bounds_path):
    """{metric: (bound, better, {workload: bound})} for every end-to-end metric."""
    with open(benchmark_path) as f:
        spec = json.load(f)
    with open(workload_bounds_path) as f:
        per_workload = json.load(f)
    return {m["name"]: (m["bound"], m["better"],
                        {w: b["bound"]
                         for w, b in per_workload.get(m["name"], {}).items()})
            for m in spec["end_to_end"]}


def _value(metric):
    return None if metric is None else metric.get("value")


def _spread(metric):
    return metric.get("q3", metric["value"]) - metric.get("q1", metric["value"])


def classify(base, new, bound, better, floor=0.0):
    """Outcome for one pair of metric entries ({"value", optional q1/q3})."""
    if _value(base) is None or _value(new) is None:
        return "n/a"
    allowed = max(bound * abs(base["value"]), floor)
    if max(_spread(base), _spread(new)) > allowed:
        return "unresolved"
    worse_by = new["value"] - base["value"]
    if better == "higher":
        worse_by = -worse_by
    if worse_by > allowed:
        return "worse"
    if -worse_by > allowed:
        return "better"
    return "within"


def compare(base_doc, new_doc, bounds):
    """Rows (workload, metric, base value, new value, outcome)."""
    workloads = list(base_doc["workloads"])
    workloads += [w for w in new_doc["workloads"] if w not in workloads]
    rows = []
    for w in workloads:
        base = base_doc["workloads"].get(w, {})
        new = new_doc["workloads"].get(w, {})
        for name, (bound, better, per_workload) in bounds.items():
            b = base.get("metrics", {}).get(name)
            n = new.get("metrics", {}).get(name)
            outcome = classify(b, n, per_workload.get(w, bound), better,
                               ABSOLUTE_FLOOR.get(name, 0.0))
            rows.append((w, name, _value(b), _value(n), outcome))
        b, n = base.get("failed_frac"), new.get("failed_frac")
        if b is None or n is None:
            outcome = "n/a"
        else:
            outcome = "worse" if n > b else "better" if n < b else "within"
        rows.append((w, "failed_frac", b, n, outcome))
    return rows


def _fmt(v):
    return f"{v:14.6g}" if v is not None else f"{'-':>14s}"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--bounds", default=os.path.join(HERE, "bounds.json"))
    args = parser.parse_args(argv)
    bounds = load_bounds(args.benchmark, args.bounds)
    with open(args.base) as f:
        base_doc = json.load(f)
    with open(args.new) as f:
        new_doc = json.load(f)

    rows = compare(base_doc, new_doc, bounds)
    print(f"{'workload':16s} {'metric':22s} {'base':>14s} {'new':>14s} "
          f"{'change':>9s}  outcome")
    for w, name, b, n, outcome in rows:
        change = f"{(n - b) / b:+9.2%}" if b and n is not None else f"{'-':>9s}"
        print(f"{w:16s} {name:22s} {_fmt(b)} {_fmt(n)} {change}  {outcome}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
