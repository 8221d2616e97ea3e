#!/usr/bin/env python3
"""Results gate for sqlog_bench --out files.

    check_results.py [--smoke] RESULTS.json [RESULTS.json ...]

Checks each file against BENCHMARK.json (at the repository root):

  * strict JSON, every number finite;
  * every workload of BENCHMARK.json present, and every metric it
    declares present in each workload with the declared unit (end-to-end
    metrics unless the run was --phase=layers, per-layer metrics unless
    it was --phase=e2e); end-to-end medians are never 0;
  * metric names match ^[A-Za-z0-9_.-]+$;
  * at least 6 samples of every end-to-end metric (timed reps; set-up
    repetitions) and 3 traced reps (--smoke: 2 and 1);
  * correct runs only: no failed operation (fail ratio 0), no recorded
    error, one output digest per workload across all reps and the traced
    run, and rep outputs equal to the reference entry point's (for W2:
    its `.sqb` outputs decoded to CSV equal to W1's CSV outputs);
  * the workload's own invariants: the adhoc full-parse ratio inside
    [0.3, 0.7], no full scan in the replay;
  * medians trace.coverage >= 0.95 and trace.overhead <= 0.05. Neither
    is checked with --smoke: toy sizes time nothing meaningful, and the
    smoke test must not flake.

Exits 1 and prints every violation when a check fails.
"""

import json
import math
import os
import re
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(SUITE, "..", "..", "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
ADHOC = "adhoc-stream-t4"
REPLAY = "stifle-replay-ooc"
FULL_PARSE_BAND = (0.3, 0.7)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token!r}")


def load_strict(path):
    """Parses `path` rejecting NaN/Infinity; raises ValueError/OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def non_finite(node, where):
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            yield f"{where}: non-finite value {node!r}"
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from non_finite(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from non_finite(value, f"{where}[{i}]")


def check_metrics(name, section, declared, min_n, nonzero):
    """Yields errors for one workload's metric section; `min_n` maps a
    metric name to its fewest samples (key None: every other metric)."""
    for metric, unit in declared:
        entry = section.get(metric)
        if not isinstance(entry, dict):
            yield f"{name}: metric {metric} missing"
            continue
        if entry.get("unit") != unit:
            yield f"{name}: {metric} unit {entry.get('unit')!r}, declared {unit!r}"
        need = min_n.get(metric, min_n[None])
        if not isinstance(entry.get("n"), int) or entry["n"] < need:
            yield f"{name}: {metric} has n={entry.get('n')}, needs >= {need}"
        if nonzero and not entry.get("median"):
            yield f"{name}: {metric} median is 0"
    for metric in section:
        if not NAME.match(metric):
            yield f"{name}: metric name {metric!r} is not [A-Za-z0-9_.-]+"


def check_doc(doc, benchmark, smoke):
    if not isinstance(doc, dict) or not isinstance(doc.get("workloads"), dict):
        yield "top level must be an object with a \"workloads\" object"
        return
    phase = doc.get("provenance", {}).get("phase", "both")
    e2e = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in benchmark["per_layer"]]
    workloads = doc["workloads"]
    for declared in benchmark["workloads"]:
        name = declared["name"]
        w = workloads.get(name)
        if not isinstance(w, dict):
            yield f"{name}: workload missing"
            continue
        if not NAME.match(name):
            yield f"{name}: workload name is not [A-Za-z0-9_.-]+"
        if phase != "layers":
            min_n = {None: 2} if smoke else {None: 6}
            yield from check_metrics(name, w.get("end_to_end", {}), e2e, min_n, True)
        per_layer = w.get("per_layer", {})
        if phase != "e2e":
            yield from check_metrics(name, per_layer, layers, {None: 1 if smoke else 3}, False)
            coverage = per_layer.get("trace.coverage", {}).get("median")
            overhead = per_layer.get("trace.overhead", {}).get("median")
            if not smoke and coverage is not None and coverage < 0.95:
                yield f"{name}: trace.coverage {coverage:.3f} < 0.95"
            if not smoke and overhead is not None and overhead > 0.05:
                yield f"{name}: trace.overhead {overhead:.3f} > 0.05"
        if w.get("correct") is not True or w.get("failed") != 0 or w.get("errors"):
            yield (f"{name}: not correct (failed {w.get('failed')} of {w.get('attempted')}; "
                   f"errors {w.get('errors')})")
        digests = w.get("digests", {})
        if len(digests.get("reps", [])) != 1:
            yield f"{name}: {len(digests.get('reps', []))} distinct output digests, expected 1"
        if name != REPLAY and digests.get("reference") != digests.get("normalized"):
            yield f"{name}: outputs differ from the reference entry point"
        if name == ADHOC:
            ratios = w.get("info", {}).get("full_parse_ratio", {}).get("samples", [])
            if not ratios or any(not FULL_PARSE_BAND[0] <= r <= FULL_PARSE_BAND[1] for r in ratios):
                yield f"{name}: full-parse ratios {ratios} outside {list(FULL_PARSE_BAND)}"
        if name == REPLAY and phase != "e2e":
            full_scans = per_layer.get("engine.full_scans", {}).get("samples", [])
            if any(full_scans):
                yield f"{name}: engine.full_scans {full_scans}, must be 0"


def main(argv):
    smoke = "--smoke" in argv
    paths = [a for a in argv if a != "--smoke"]
    if not paths:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    benchmark = load_strict(BENCHMARK)
    failures = 0
    for path in paths:
        try:
            doc = load_strict(path)
        except (OSError, ValueError) as err:
            print(f"{path}: {err}")
            failures += 1
            continue
        errors = list(non_finite(doc, "$")) + list(check_doc(doc, benchmark, smoke))
        for error in errors:
            print(f"{path}: {error}")
        failures += bool(errors)
        if not errors:
            print(f"{path}: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
