#!/usr/bin/env python3
"""Summarizes or compares serving-benchmark result files.

    python3 servebench/compare.py RESULTS.jsonl             # one set: medians, quartiles, spread
    python3 servebench/compare.py BASE.jsonl NEW.jsonl      # two sets: per-metric deltas

A result file holds one JSON line per run, as written by run.py --save.
Spread is the distance between the first and third quartile over the median.
A delta is flagged when the new median is worse than the base median by more
than the metric's bound in BENCHMARK.json; a spread is flagged when it exceeds
the bound. This command only reports: it exits 0 whatever it finds.

The host's speed drifts over minutes, so compare sets whose runs alternate
(base, new, base, new, ...). When one set ran entirely before the other, the
comparison says so: the drift between them is then counted as a change.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_runs(path):
    """{(workload, trace): {"runs": n, "failed": share list, "times": [start],
    "metrics": {metric: [values]}}}"""
    groups = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            res = rec["result"]
            g = groups.setdefault((rec["workload"], rec["trace"]), {"runs": 0, "failed": [],
                                                                     "incorrect": 0, "times": [],
                                                                     "metrics": {}})
            g["runs"] += 1
            g["failed"].append(res["failed"] / res["attempted"])
            g["incorrect"] += 0 if res["correct"] else 1
            if "time" in rec:
                g["times"].append(rec["time"])
            for name, m in res["metrics"].items():
                g["metrics"].setdefault(name, []).append(m["value"])
    return groups


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_share(better, base, new):
    """How much worse `new` is than `base`, as a share of base (negative = better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def summarize(groups, bounds):
    for (workload, trace), g in sorted(groups.items()):
        print("== %s (trace %d): %d runs, %d incorrect, failed share %s" %
              (workload, trace, g["runs"], g["incorrect"], sorted(set(g["failed"]))))
        for name, values in g["metrics"].items():
            better, bound = bounds.get(name, ("?", None))
            med, q1, q3, spread = stats(values)
            flag = ""
            if bound is not None:
                flag = "SPREAD>BOUND" if spread > bound else (
                    "ok" if spread < bound / 3 else "spread>bound/3")
            print("  %-30s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.2f%%  %s" %
                  (name, med, q1, q3, 100 * spread, flag))


def compare(base, new, bounds):
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        if key not in base or key not in new:
            print("== %s (trace %d): only in %s" % (workload, trace,
                                                   "base" if key in base else "new"))
            continue
        b, n = base[key], new[key]
        fb, fn = statistics.median(b["failed"]), statistics.median(n["failed"])
        print("== %s (trace %d): runs %d vs %d, failed share %.6g vs %.6g%s" %
              (workload, trace, b["runs"], n["runs"], fb, fn, "  FAILED-SHARE-CHANGED"
               if fb != fn else ""))
        if b["times"] and n["times"] and (max(b["times"]) < min(n["times"]) or
                                          max(n["times"]) < min(b["times"])):
            print("  NOT-ALTERNATED: one set ran entirely before the other; host drift "
                  "between them shows as a change")
        for name in b["metrics"]:
            if name not in n["metrics"]:
                print("  %-30s missing in new" % name)
                continue
            better, bound = bounds.get(name, ("?", None))
            mb, q1b, q3b, _ = stats(b["metrics"][name])
            mn, q1n, q3n, _ = stats(n["metrics"][name])
            worse = worse_share(better, mb, mn)
            flag = ""
            if bound is not None and worse > bound:
                flag = "WORSE>BOUND(%.0f%%)" % (100 * bound)
            print("  %-30s base %-12.6g [%-.6g, %-.6g]  new %-12.6g [%-.6g, %-.6g]  "
                  "worse by %+7.2f%%  %s" % (name, mb, q1b, q3b, mn, q1n, q3n, 100 * worse, flag))


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = load_bounds()
    groups = [load_runs(p) for p in sys.argv[1:]]
    if len(groups) == 1:
        summarize(groups[0], bounds)
    else:
        compare(groups[0], groups[1], bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
