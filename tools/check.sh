#!/usr/bin/env bash
# Full correctness gate for InfoShield.
#
#   tools/check.sh          lint, the clang thread-safety-analysis gate
#                           (when clang++ is installed), the whole test
#                           suite under ASan+UBSan and again under TSan
#                           (both with -Werror and the deep invariant
#                           auditors on), then the line-coverage ratchet
#                           (tools/coverage.sh against
#                           tools/coverage_baseline.json).
#   tools/check.sh --fast   lint + thread-safety gate + an ASan+UBSan run
#                           of the unit tests only (slow sweep/pipeline
#                           suites, the TSan pass, and the coverage
#                           ratchet are skipped). Suitable as a pre-merge
#                           smoke check.
#   tools/check.sh --analyze
#                           the AST-grounded analyzer only
#                           (tools/analyzer/analyze.py): guarded-ref
#                           escapes, lock-order cycles, hot-loop
#                           allocations, unordered iteration, the
#                           interprocedural race-inference and lifetime
#                           checks, the lock-order dot graph,
#                           build/race_report.json, and
#                           build/lifetime_report.json. Also part of
#                           every full and --fast run.
#   tools/check.sh --races  the race-inference legs only (race-infer,
#                           missing-guarded-by, blocking-under-lock,
#                           unordered-output-flow) + race_report.json —
#                           the lockset-analysis counterpart to the TSan
#                           and thread-safety gates, for states TSA
#                           cannot see (unannotated fields, cross-call
#                           locksets).
#   tools/check.sh --lifetimes
#                           the interprocedural lifetime legs only
#                           (dangling-view, iter-invalidation,
#                           view-escape) + build/lifetime_report.json —
#                           view types bound to dying storage, live
#                           iterators across container mutations, and
#                           the owns()/borrows() contract language on
#                           view fields (DESIGN.md §17). Also part of
#                           every full and --fast run via the analyzer
#                           stage.
#   tools/check.sh --fuzz   fuzz smoke only: builds the libFuzzer
#                           harnesses under clang + ASan/UBSan, replays
#                           the seed corpora, then fuzzes each harness
#                           for 60 seconds. Without clang++ the replay
#                           runners still execute under gcc sanitizers.
#
# Build trees go to build-asan/, build-tsan/, build-clang-tsa/,
# build-fuzz/, and build-cov/ next to build/ (all gitignored). Exits
# non-zero on the first failing stage.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

FAST=0
FUZZ=0
ANALYZE_ONLY=0
RACES_ONLY=0
LIFETIMES_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --fuzz) FUZZ=1 ;;
    --analyze) ANALYZE_ONLY=1 ;;
    --races) RACES_ONLY=1 ;;
    --lifetimes) LIFETIMES_ONLY=1 ;;
    -h|--help)
      sed -n '2,51p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "unknown argument: $arg (try --help)" >&2
      exit 2
      ;;
  esac
done

JOBS="$(nproc 2> /dev/null || echo 4)"
SUPP_DIR="$ROOT/tools/sanitizers"

# Runtime options: fail hard on any report, keep stacks readable.
export ASAN_OPTIONS="detect_stack_use_after_return=1:strict_string_checks=1:check_initialization_order=1:detect_leaks=1:abort_on_error=1"
export LSAN_OPTIONS="suppressions=$SUPP_DIR/lsan.supp:report_objects=1"
export UBSAN_OPTIONS="suppressions=$SUPP_DIR/ubsan.supp:print_stacktrace=1:halt_on_error=1"
export TSAN_OPTIONS="suppressions=$SUPP_DIR/tsan.supp:halt_on_error=1:second_deadlock_stack=1"

step() { printf '\n=== %s ===\n' "$*"; }

# The AST-grounded analyzer (DESIGN.md §13, §14, §17): every check over
# every TU in src/, tools/, and fuzz/, the allow()/baseline ratchet,
# the lock-order graph, and the race/lifetime reports. Uses clang ASTs
# when clang++ is installed, the built-in frontend otherwise.
run_analyzer() {
  step "AST analyzer (tools/analyzer: all checks + lock-order graph + race/lifetime reports)"
  mkdir -p build
  python3 tools/analyzer/analyze.py \
    --cache-dir "$ROOT/.analyzer-cache" \
    --dot-out "$ROOT/build/lock_order.dot" \
    --race-report "$ROOT/build/race_report.json" \
    --lifetime-report "$ROOT/build/lifetime_report.json"
}

# --races: only the interprocedural lockset legs (DESIGN.md §14). The
# baseline is filtered to the same checks, so inference findings gate
# here without retesting the §13 checks.
run_races() {
  step "race inference (race-infer, missing-guarded-by, blocking-under-lock, unordered-output-flow)"
  mkdir -p build
  python3 tools/analyzer/analyze.py \
    --cache-dir "$ROOT/.analyzer-cache" \
    --checks race-infer,missing-guarded-by,blocking-under-lock,unordered-output-flow \
    --race-report "$ROOT/build/race_report.json"
}

if [[ "$ANALYZE_ONLY" == "1" ]]; then
  run_analyzer
  exit 0
fi

# --lifetimes: only the interprocedural lifetime legs (DESIGN.md §17).
# The baseline is filtered to the same checks, so lifetime findings
# gate here without retesting the §13/§14 checks.
run_lifetimes() {
  step "lifetime analysis (dangling-view, iter-invalidation, view-escape)"
  mkdir -p build
  python3 tools/analyzer/analyze.py \
    --cache-dir "$ROOT/.analyzer-cache" \
    --checks dangling-view,iter-invalidation,view-escape \
    --lifetime-report "$ROOT/build/lifetime_report.json"
}

if [[ "$RACES_ONLY" == "1" ]]; then
  run_races
  exit 0
fi

if [[ "$LIFETIMES_ONLY" == "1" ]]; then
  run_lifetimes
  exit 0
fi

# --fuzz: the fuzz smoke leg (DESIGN.md §12) and nothing else.
if [[ "$FUZZ" == "1" ]]; then
  if command -v clang++ > /dev/null 2>&1; then
    step "fuzz smoke (clang, libFuzzer, ASan+UBSan)"
    cmake -B build-fuzz -S . \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DINFOSHIELD_FUZZ=ON \
      -DINFOSHIELD_SANITIZE="address,undefined" \
      > /dev/null
    cmake --build build-fuzz -j "$JOBS"
    step "replaying seed corpora under sanitizers"
    ctest --test-dir build-fuzz -R fuzz_replay --output-on-failure
    step "fuzzing each harness for 60s"
    mkdir -p build-fuzz/artifacts
    for harness in tokenizer csv universal_code pairwise poa \
                   diff_fine diff_coarse diff_coarse_backend \
                   diff_incremental; do
      step "fuzz_$harness"
      ./build-fuzz/fuzz/fuzz_"$harness" \
        -max_total_time=60 -print_final_stats=1 \
        -artifact_prefix="build-fuzz/artifacts/${harness}-" \
        "tests/fuzz_corpus/$harness"
    done
    step "fuzz smoke passed (crashers, if any, in build-fuzz/artifacts/)"
  else
    step "clang++ not installed — replaying seed corpora only (gcc, ASan+UBSan)"
    cmake -B build-fuzz -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DINFOSHIELD_SANITIZE="address,undefined" \
      > /dev/null
    cmake --build build-fuzz -j "$JOBS"
    ctest --test-dir build-fuzz -R fuzz_replay --output-on-failure
    step "replay passed (install clang++ for the libFuzzer leg)"
  fi
  exit 0
fi

configure_and_build() {
  local dir="$1" sanitize="$2"
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DINFOSHIELD_WERROR=ON \
    -DINFOSHIELD_AUDIT=ON \
    -DINFOSHIELD_SANITIZE="$sanitize" \
    > /dev/null
  cmake --build "$dir" -j "$JOBS"
}

step "lint (tools/lint.py + clang-tidy when available)"
configure_and_build build-asan "address,undefined"
python3 tools/lint.py --clang-tidy-build-dir "$ROOT/build-asan"

run_analyzer

# Clang thread-safety analysis: compiles all of src/ (and everything that
# includes it) with -Wthread-safety -Wthread-safety-beta promoted to
# errors, proving the GUARDED_BY/REQUIRES contracts in
# src/util/thread_annotations.h. Build-only — the artifacts are the
# proof; the sanitizer passes below run the tests.
if command -v clang++ > /dev/null 2>&1; then
  step "clang thread-safety analysis (-Wthread-safety as errors)"
  cmake -B build-clang-tsa -S . \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DINFOSHIELD_WERROR=ON \
    -DINFOSHIELD_THREAD_SAFETY=ON \
    > /dev/null
  cmake --build build-clang-tsa -j "$JOBS"
else
  step "clang++ not installed — skipping the thread-safety analysis gate"
fi

if [[ "$FAST" == "1" ]]; then
  step "ASan+UBSan unit tests (--fast: sweep/pipeline suites skipped)"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -E 'Sweep|Pipeline|Integration|EndToEnd'
  step "fast check passed (TSan pass skipped; run tools/check.sh for it)"
  exit 0
fi

step "ASan+UBSan full test suite (audited, -Werror)"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

step "TSan full test suite (thread_pool + parallel fine stage included)"
configure_and_build build-tsan "thread"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS"

step "line-coverage ratchet (tools/coverage.sh vs coverage_baseline.json)"
tools/coverage.sh

step "all checks passed"
