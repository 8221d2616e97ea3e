#!/usr/bin/env python3
"""Schema check for checked-in BENCH_*.json artifacts.

A bench run that hits a 0-record or 0-duration edge can divide by zero;
fprintf renders the result as a bare `inf`/`nan` token, which json.loads
technically accepts (as Infinity/NaN) but no strict JSON consumer does.
This gate rejects:

  * files that are not valid strict JSON (bare inf/nan included),
  * any non-finite number anywhere in the document,
  * files missing the common envelope: a top-level object with a
    "benchmark" string and a numeric "peak_rss_bytes",
  * sec63_runtime artifacts without a populated "out_of_core" section
    (the storage-engine sweep must be part of the checked-in run),
  * binary_log_format artifacts without a "provenance" object naming
    the git sha, nproc, compiler and build type they were measured with.

Usage: check_bench_json.py FILE [FILE...]
"""

import json
import math
import sys


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token!r}")


def check_numbers(node, path):
    """Yields error strings for every non-finite number under `node`."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            yield f"{path}: non-finite value {node!r}"
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from check_numbers(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from check_numbers(value, f"{path}[{i}]")


def check_file(path):
    """Returns a list of error strings for one bench JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as err:
        return [f"{path}: {err}"]

    errors = []
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]
    if not isinstance(doc.get("benchmark"), str) or not doc["benchmark"]:
        errors.append(f"{path}: missing or empty \"benchmark\" string")
    rss = doc.get("peak_rss_bytes")
    if isinstance(rss, bool) or not isinstance(rss, (int, float)):
        errors.append(f"{path}: missing numeric \"peak_rss_bytes\"")
    if doc.get("benchmark") == "sec63_runtime":
        errors.extend(f"{path}: {e}" for e in check_sec63(doc))
    if doc.get("benchmark") == "binary_log_format":
        errors.extend(f"{path}: {e}" for e in check_provenance(doc))
    errors.extend(f"{path}: {e}" for e in check_numbers(doc, "$"))
    return errors


def check_provenance(doc):
    """Yields errors for a missing or incomplete "provenance" object."""
    prov = doc.get("provenance")
    if not isinstance(prov, dict):
        yield 'missing "provenance" object'
        return
    for key in ("git_sha", "compiler", "build_type"):
        if not isinstance(prov.get(key), str) or not prov[key]:
            yield f'missing or empty "provenance.{key}" string'
    nproc = prov.get("nproc")
    if isinstance(nproc, bool) or not isinstance(nproc, int) or nproc < 1:
        yield 'missing positive integer "provenance.nproc"'


def check_sec63(doc):
    """Yields errors for the sec63_runtime-specific out-of-core section."""
    ooc = doc.get("out_of_core")
    if not isinstance(ooc, dict):
        yield 'missing "out_of_core" object'
        return
    configs = ooc.get("configs")
    if not isinstance(configs, list) or not configs:
        yield '"out_of_core.configs" must be a non-empty array'
        return
    speedup = ooc.get("index_over_scan_speedup")
    if isinstance(speedup, bool) or not isinstance(speedup, (int, float)):
        yield 'missing numeric "out_of_core.index_over_scan_speedup"'
    ran = [c for c in configs if isinstance(c, dict) and not c.get("skipped")]
    if not ran:
        yield 'every "out_of_core" config was skipped'
    for cell in ran:
        label = f"{cell.get('storage')}/{cell.get('access')}"
        for key in ("queries", "query_seconds", "peak_rss_bytes"):
            value = cell.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                yield f'out_of_core config {label}: missing numeric "{key}"'


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = []
    for path in argv[1:]:
        failures.extend(check_file(path))
    for failure in failures:
        print(failure, file=sys.stderr)
    if not failures:
        print(f"checked {len(argv) - 1} bench JSON file(s): all valid")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
