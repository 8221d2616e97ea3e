#!/usr/bin/env bash
# Full local gate: warning-clean build, sqlog-lint, the default test
# sweep, the benchmark suite's smoke run, then the sanitizer presets.
# Run from anywhere inside the repo; everything a PR must pass runs
# here. ~5-10 minutes on 8 cores.
#
# Usage: scripts/check.sh [--fast] [--tidy]
#   --fast   skip the asan-ubsan and tsan preset builds
#   --tidy   also run clang-tidy over src/ (no-op when clang-tidy is
#            not on PATH)

set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
jobs=$(nproc 2>/dev/null || echo 4)
fast=0
tidy=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    --tidy) tidy=1 ;;
    *) echo "usage: scripts/check.sh [--fast] [--tidy]" >&2; exit 2 ;;
  esac
done

step() { printf '\n=== %s ===\n' "$*"; }

# 1. Warning-clean build. -Wall -Wextra -Werror=unused-result come from
#    CMakeLists.txt; -Werror promotes the rest. -Wthread-safety needs
#    clang, so only clang builds add SQLOG_THREAD_SAFETY=ON — under GCC
#    the annotations compile as no-ops and the gate is warnings-only.
step "configure + build (warnings are errors)"
thread_safety=OFF
if command -v clang++ >/dev/null 2>&1; then
  thread_safety=ON
  export CXX=clang++
fi
cmake --preset default \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror" \
  -DSQLOG_THREAD_SAFETY=${thread_safety}
cmake --build --preset default -j "$jobs"

# 2. Repo lint (rules R1-R10, see DESIGN.md). Runs twice against a fresh
#    fact cache: the cold run extracts facts for every file, the warm run
#    must reuse them all — both the timing line and the JSON report (via
#    the schema gate below) prove the incremental cache works.
step "sqlog-lint (cold vs warm fact cache)"
lint_cache=/tmp/sqlog_check_lint.cache
lint_json=/tmp/sqlog_check_lint.json
rm -f "$lint_cache"
t0=$(date +%s%N)
./build/tools/sqlog-lint --config=tools/lint/lint_config.txt \
  --cache="$lint_cache" src tools bench fuzz tests
t1=$(date +%s%N)
./build/tools/sqlog-lint --config=tools/lint/lint_config.txt \
  --cache="$lint_cache" --json="$lint_json" src tools bench fuzz tests
t2=$(date +%s%N)
rm -f "$lint_cache"
printf 'lint cache: cold %d ms, warm %d ms\n' \
  $(( (t1 - t0) / 1000000 )) $(( (t2 - t1) / 1000000 ))

# 2b. The lint JSON report must satisfy its schema, and checked-in bench
#     artifacts must be strict JSON with finite numbers (a 0-duration
#     run would otherwise leak bare inf/nan tokens).
step "lint + bench JSON schema checks"
python3 scripts/check_lint_json.py "$lint_json"
rm -f "$lint_json"
python3 scripts/check_bench_json.py BENCH_*.json

# 2c. Optional clang-tidy pass: a second, independent static analyzer
#     over the library sources. Skipped silently when clang-tidy is not
#     installed so the gate stays runnable everywhere.
if [[ $tidy -eq 1 ]]; then
  step "clang-tidy"
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    find src -name '*.cc' -print0 |
      xargs -0 -P "$jobs" -n 8 clang-tidy -p build --quiet
  else
    echo "clang-tidy not on PATH; skipping"
  fi
fi

# 3. CLI smoke: the report subcommand must run the full detector catalog
#    over a generated log without errors (the per-detector P/R tests live
#    in detector_registry_test; this catches CLI-level wiring breaks).
step "sqlog report smoke"
smoke_log=$(mktemp /tmp/sqlog_smoke.XXXXXX.csv)
trap 'rm -f "$smoke_log" "${smoke_log%.csv}".* /tmp/sqlog_smoke_clean.*' EXIT
./build/tools/sqlog generate 2000 "$smoke_log"
./build/tools/sqlog report "$smoke_log" >/dev/null

# 3a. Malformed numeric arguments are usage errors (exit 2), never a
#     crash or a silently truncated number.
step "CLI numeric-argument rejection"
expect_exit_2() {
  local status=0
  "$@" >/dev/null 2>&1 || status=$?
  if [[ $status -ne 2 ]]; then
    echo "expected exit 2, got $status: $*" >&2
    exit 1
  fi
}
expect_exit_2 ./build/tools/sqlog clean --batch-size=-1 "$smoke_log" /tmp/sqlog_smoke_clean.x
expect_exit_2 ./build/tools/sqlog clean --batch-size=12abc "$smoke_log" /tmp/sqlog_smoke_clean.x
expect_exit_2 ./build/tools/sqlog generate -1 /tmp/sqlog_smoke_clean.x.csv

# 3a2. No command truncates its own input: an output path naming the
#      input fails before any writer opens, and `stats --streaming`
#      parks its throwaway outputs outside the input's directory, so a
#      file named like them survives.
step "CLI outputs never overwrite an input"
expect_failure_leaving() {  # <file> <command...>
  local file=$1
  shift
  cp "$file" "$file.saved"
  if "$@" >/dev/null 2>&1; then
    echo "expected a failure: $*" >&2
    exit 1
  fi
  cmp "$file.saved" "$file"
  rm -f "$file.saved"
}
alias_prefix="${smoke_log%.csv}.alias"
cp "$smoke_log" "$alias_prefix.clean.csv"
expect_failure_leaving "$smoke_log" ./build/tools/sqlog convert "$smoke_log" "$smoke_log"
expect_failure_leaving "$alias_prefix.clean.csv" \
  ./build/tools/sqlog clean --streaming "$alias_prefix.clean.csv" "$alias_prefix"
expect_failure_leaving "$alias_prefix.clean.csv" \
  ./build/tools/sqlog clean "$alias_prefix.clean.csv" "$alias_prefix"
sentinel="$smoke_log.stats-tmp.clean.csv"
echo "not a sqlog output" >"$sentinel"
cp "$sentinel" "$sentinel.saved"
./build/tools/sqlog stats --streaming "$smoke_log" >/dev/null
cmp "$sentinel.saved" "$sentinel"

# 3b. Binary-format smoke: convert to `.sqb`, clean from it (exercising
#     the zero-parse ingest path), convert back, and require the result
#     to be byte-identical to cleaning the CSV directly.
step "sqb convert round-trip smoke"
smoke_sqb="${smoke_log%.csv}.sqb"
smoke_back="${smoke_log%.csv}.back.csv"
./build/tools/sqlog convert "$smoke_log" "$smoke_sqb" >/dev/null
./build/tools/sqlog convert "$smoke_sqb" "$smoke_back" >/dev/null
cmp "$smoke_log" "$smoke_back"
./build/tools/sqlog clean "$smoke_log" /tmp/sqlog_smoke_clean.a --streaming >/dev/null
./build/tools/sqlog clean "$smoke_sqb" /tmp/sqlog_smoke_clean.b --streaming >/dev/null
cmp /tmp/sqlog_smoke_clean.a.clean.csv /tmp/sqlog_smoke_clean.b.clean.csv
cmp /tmp/sqlog_smoke_clean.a.removal.csv /tmp/sqlog_smoke_clean.b.removal.csv

# 3c. Binary clean *output*: `clean --out-format=sqb` must produce `.sqb`
#     logs that convert back byte-identical to the CSV clean outputs, in
#     both the in-memory and streaming pipelines. From a `.sqb` input the
#     writers re-encode pass-through records from the input's template
#     shapes instead of lexing them; the `.sqb` bytes must not change:
#     cleaning the `.sqb` input writes the files cleaning the CSV input
#     writes, and `convert` from `.sqb` to `.sqb` reproduces its input.
step "sqb clean-output smoke"
./build/tools/sqlog clean --out-format=sqb "$smoke_log" /tmp/sqlog_smoke_clean.c >/dev/null
./build/tools/sqlog convert --to-csv /tmp/sqlog_smoke_clean.c.clean.sqb \
  /tmp/sqlog_smoke_clean.c.clean.back.csv >/dev/null
./build/tools/sqlog convert --to-csv /tmp/sqlog_smoke_clean.c.removal.sqb \
  /tmp/sqlog_smoke_clean.c.removal.back.csv >/dev/null
cmp /tmp/sqlog_smoke_clean.a.clean.csv /tmp/sqlog_smoke_clean.c.clean.back.csv
cmp /tmp/sqlog_smoke_clean.a.removal.csv /tmp/sqlog_smoke_clean.c.removal.back.csv
./build/tools/sqlog clean --streaming --out-format=sqb "$smoke_log" \
  /tmp/sqlog_smoke_clean.d >/dev/null
./build/tools/sqlog convert --to-csv /tmp/sqlog_smoke_clean.d.clean.sqb \
  /tmp/sqlog_smoke_clean.d.clean.back.csv >/dev/null
cmp /tmp/sqlog_smoke_clean.a.clean.csv /tmp/sqlog_smoke_clean.d.clean.back.csv
./build/tools/sqlog clean --streaming --out-format=sqb "$smoke_sqb" \
  /tmp/sqlog_smoke_clean.e >/dev/null
cmp /tmp/sqlog_smoke_clean.d.clean.sqb /tmp/sqlog_smoke_clean.e.clean.sqb
cmp /tmp/sqlog_smoke_clean.d.removal.sqb /tmp/sqlog_smoke_clean.e.removal.sqb
smoke_resqb="${smoke_log%.csv}.re.sqb"
./build/tools/sqlog convert "$smoke_sqb" "$smoke_resqb" >/dev/null
cmp "$smoke_sqb" "$smoke_resqb"

# 3c2. A write failure names the file: converting onto a full device
#      must fail, and the message must say which file.
if [[ -e /dev/full ]]; then
  step "CLI write failure names the file"
  if full_err=$(./build/tools/sqlog convert "$smoke_log" /dev/full --to-sqb 2>&1); then
    echo "convert onto /dev/full succeeded" >&2
    exit 1
  fi
  if [[ "$full_err" != *"/dev/full"* ]]; then
    echo "convert onto /dev/full failed without naming it: $full_err" >&2
    exit 1
  fi
fi

# 3d. Storage-engine smoke: the Sec 6.3 out-of-core sweep at a tiny row
#     count runs all four {memory,paged} x {scan,index} cells (each cell
#     verifies every point probe hits) and its JSON must pass the bench
#     schema gate, including the sec63-specific out_of_core checks.
step "out-of-core sweep smoke (both storage modes)"
./build/bench/bench_sec63_runtime --ooc-only --rows=2000 --buffer-pages=16 \
  --json=/tmp/sqlog_smoke_clean.sec63.json >/dev/null
python3 scripts/check_bench_json.py /tmp/sqlog_smoke_clean.sec63.json

# 4. Default test sweep (includes check-lint, the golden pipeline test,
#    and the memory-budget test).
step "ctest (default preset)"
ctest --preset default -j "$jobs"

# 4b. The same sweep with the dispatched kernels forced to their scalar
#     twins: every test (golden matrix included) must be byte-identical
#     in both dispatch modes.
step "ctest (default preset, SQLOG_FORCE_SCALAR=1)"
SQLOG_FORCE_SCALAR=1 ctest --preset default -j "$jobs"

# 4c. The benchmark suite is a CMake project of its own over the library
#     sources, so neither the build above nor its ctest compiles it. Its
#     traced runs call MinePatterns, RemoveDuplicates, ParseLog and
#     SolveAntipatterns directly: build it and run its smoke test (every
#     workload at toy sizes, each run's outputs digest-checked through a
#     second entry point) so that an API change breaks here first.
step "bench suite build + smoke"
cmake -S bench/suite -B build/bench-suite
cmake --build build/bench-suite -j "$jobs"
(cd build/bench-suite && ctest -L bench-smoke --output-on-failure)

if [[ $fast -eq 1 ]]; then
  step "done (--fast: sanitizer presets skipped)"
  exit 0
fi

# 5. ASan+UBSan: full sweep plus the checked-in fuzz corpus replay. The
#    memory-budget test is excluded by the preset — ASan shadow memory
#    inflates peak RSS ~3x past the 256 MiB cap the test pins.
step "asan-ubsan preset"
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"
ctest --preset asan-ubsan -j "$jobs"

# 6. TSan: the concurrency surface under ThreadSanitizer. Perf and
#    memory-budget tests are excluded by the preset — sanitizer overhead
#    breaks their thresholds, not their correctness.
step "tsan preset"
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"
ctest --preset tsan -j "$jobs"

step "all checks passed"
