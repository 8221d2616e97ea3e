#!/usr/bin/env python3
"""Builds sqlog_bench from source and runs one workload of it.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR when
that is set, else to .bench_build/ (both inside the checkout); the first
call configures and compiles (about a minute on 4 cores), later calls
only check that the build is current. Build output goes to stderr, so
the last stdout line is sqlog_bench's result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace
1` the per-layer ones. Exits non-zero without a result line when the
build fails, e.g. in a directory holding only the benchmark's files.
"""

import argparse
import os
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))


def git_provenance():
    """`<sha>` or `<sha>+dirty` when the checkout is a git work tree."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+dirty" if dirty else "")


def build(build_dir):
    """Configures (once) and builds sqlog_bench; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):  # unconfigured or failed
        steps.append(["cmake", "-S", SUITE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "sqlog_bench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    exe = os.path.join(build_dir, "sqlog_bench")
    return exe if os.path.isfile(exe) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    if exe is None:
        print("sqlog_bench: build failed", file=sys.stderr)
        return 2
    command = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", "--phase=" + ("layers" if args.trace else "e2e"),
               "--git=" + git_provenance()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
