#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, regenerate
# every paper table/figure, and leave the transcripts in
# test_output.txt / bench_output.txt at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Every figure, each under a `===== NAME =====` line. The transcript
# is stdout only, so it equals tests/golden/figures.txt; diagnostics
# and the engine's host-side metrics stay on the terminal (stderr).
build/bench/figures | tee bench_output.txt

echo "Done. See test_output.txt and bench_output.txt."
