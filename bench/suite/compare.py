#!/usr/bin/env python3
"""Compares two sqlog_bench --out files metric by metric.

    compare.py A.json B.json

For every workload and end-to-end metric it prints both medians, both
quartile ranges, the change of B against A in the metric's worse
direction, the bound from BENCHMARK.json, and a verdict:

  agree       |change| <= bound and both spreads <= bound
  differ      |change| > bound and both spreads <= bound
  unresolved  the quartile range of either side, as a share of its
              median, is wider than the bound: the runs cannot tell

Per-layer metrics follow with their medians and change only; they have
no bound. Exits 2 on unreadable input, 0 otherwise.
"""

import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the suite directory
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_results import BENCHMARK, load_strict  # noqa: E402


def spread(entry):
    median = entry["median"]
    return (entry["q3"] - entry["q1"]) / abs(median) if median else float("inf")


def change(a, b, better):
    """Relative change of b against a, positive when b is worse."""
    if not a["median"]:
        return 0.0 if not b["median"] else float("inf")
    delta = (b["median"] - a["median"]) / abs(a["median"])
    return -delta if better == "higher" else delta


def verdict(a, b, metric):
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "agree" if abs(change(a, b, metric["better"])) <= bound else "differ"


def row(name, a, b, worse, bound="", result=""):
    def side(e):
        return f"{e['median']:>12.6g} " + f"[{e['q1']:.4g}, {e['q3']:.4g}]".ljust(24)
    return f"  {name:30s} {side(a)} {side(b)} {worse:+8.2%} {bound:>4} {result}"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        docs = [load_strict(path)["workloads"] for path in argv]
        benchmark = load_strict(BENCHMARK)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    counts = {}
    for declared in benchmark["workloads"]:
        name = declared["name"]
        a, b = (doc.get(name, {}) for doc in docs)
        print(f"{name}   (A: {argv[0]}  B: {argv[1]}; change is B vs A, + = worse)")
        for metric in benchmark["end_to_end"]:
            ea = a.get("end_to_end", {}).get(metric["name"])
            eb = b.get("end_to_end", {}).get(metric["name"])
            if ea is None or eb is None:
                print(f"  {metric['name']:30s} missing")
                counts["missing"] = counts.get("missing", 0) + 1
                continue
            result = verdict(ea, eb, metric)
            counts[result] = counts.get(result, 0) + 1
            print(row(metric["name"], ea, eb, change(ea, eb, metric["better"]),
                      f"{metric['bound']:.0%}", result))
        for metric in benchmark["per_layer"]:
            la = a.get("per_layer", {}).get(metric["name"])
            lb = b.get("per_layer", {}).get(metric["name"])
            if la and lb and (la["median"] or lb["median"]):
                print(row(metric["name"], la, lb, change(la, lb, metric["better"])))
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
