#!/usr/bin/env bash
# CI gate: tier-1 verify (full build + ctest), the source-level
# determinism lint (with its --self-test fixtures), an advisory
# clang-tidy pass over src/analysis, the entry-point smoke stages of
# scripts/smoke.sh on build/ (registry lint, analyze, trace, chaos,
# resume, store, fsck, serve), the reach stage (scripts/reach.sh:
# every src/ function is entered by an entry point or allowlisted), a
# bench stage (the repository benchmark's own tests: perfbench/run.py
# --selftest), a ThreadSanitizer pass over the parallel experiment
# engine, the result store, the tracer suite, the injection suite and
# the campaign daemon, and an ASan+UBSan build of the full test suite
# (which includes the injection and store suites).
#
#   scripts/check.sh             # all stages
#   scripts/check.sh --no-tsan   # skip the TSan stage
#   scripts/check.sh --no-asan   # skip the ASan+UBSan stage
#   scripts/check.sh --no-chaos  # skip the chaos smoke stage
#   scripts/check.sh --no-bench  # skip the perfbench self-test
#   scripts/check.sh --no-serve  # skip the campaign-daemon stage
#
# The sanitizer and reach stages configure separate build trees
# (build-tsan/, build-asan/, build-cov/) so the instrumented objects
# never mix with the regular build. The smoke stages' registry lint
# fails on any error-severity UAL diagnostic, keeping the shipped
# registry lint-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
run_chaos=1
run_bench=1
run_serve=1
for arg in "$@"; do
    case "$arg" in
        --no-tsan) run_tsan=0 ;;
        --no-asan) run_asan=0 ;;
        --no-chaos) run_chaos=0 ;;
        --no-bench) run_bench=0 ;;
        --no-serve) run_serve=0 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

echo "== tier-1: build + full test suite =="
# -Werror: the tree builds warning-free, and a new warning fails here.
cmake -B build -S . -DUVMASYNC_WERROR=ON
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "== lint: source-level determinism gate =="
./tools/determinism_lint.sh --self-test
./tools/determinism_lint.sh

echo "== tidy: clang-tidy over src/analysis (non-blocking) =="
if command -v clang-tidy > /dev/null 2>&1; then
    # Advisory only: findings are printed but never fail the gate.
    clang-tidy -p build --quiet src/analysis/*.cc || \
        echo "tidy: findings above are advisory" >&2
else
    echo "tidy: clang-tidy not installed; skipping" >&2
fi

smoke_flags=()
[ "$run_chaos" = 1 ] || smoke_flags+=(--no-chaos)
[ "$run_serve" = 1 ] || smoke_flags+=(--no-serve)
scripts/smoke.sh build "${smoke_flags[@]}"

echo "== reach: every src/ function entered by an entry point =="
scripts/reach.sh

if [ "$run_bench" = 1 ]; then
    echo "== bench: perfbench self-test =="
    # Builds perfbench (RelWithDebInfo, its own tree) and runs its
    # statistics/digest/compare tests. Benchmark runs themselves are
    # timed by `python3 perfbench/run.py`, not gated here: wall-clock
    # rates on a shared machine are too noisy for a CI threshold.
    python3 perfbench/run.py --selftest
fi

if [ "$run_tsan" = 1 ]; then
    echo "== TSan: parallel engine + store + tracer + injection" \
        "+ serve =="
    cmake -B build-tsan -S . -DUVMASYNC_TSAN=ON
    cmake --build build-tsan -j"$(nproc)" \
        --target test_parallel_runner --target test_trace \
        --target test_inject --target test_store \
        --target test_serve
    TSAN_OPTIONS="halt_on_error=1" \
        ./build-tsan/tests/test_parallel_runner
    TSAN_OPTIONS="halt_on_error=1" \
        ./build-tsan/tests/test_trace
    TSAN_OPTIONS="halt_on_error=1" \
        ./build-tsan/tests/test_inject
    TSAN_OPTIONS="halt_on_error=1" \
        ./build-tsan/tests/test_store
    TSAN_OPTIONS="halt_on_error=1" \
        ./build-tsan/tests/test_serve
fi

if [ "$run_asan" = 1 ]; then
    echo "== ASan+UBSan: full test suite under sanitizers =="
    cmake -B build-asan -S . -DUVMASYNC_ASAN=ON
    cmake --build build-asan -j"$(nproc)"
    ASAN_OPTIONS="detect_leaks=0" \
        ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
fi

echo "check.sh: all stages passed"
