#!/usr/bin/env sh
# Reproduces the full evaluation: build, run the test suite, regenerate
# every table/figure (CSV copies land in results/ for plotting).
#
#   ./reproduce.sh           # default trial counts (~30 min on one core)
#   PD_BENCH_REPS=5 ./reproduce.sh   # closer to the paper's trial counts
set -eu

cmake -B build -S .
cmake --build build

ctest --test-dir build --output-on-failure | tee test_output.txt

export PD_BENCH_CSV_DIR="${PD_BENCH_CSV_DIR:-$(pwd)/results}"
mkdir -p "$PD_BENCH_CSV_DIR"
{
  for b in build/bench/*; do
    echo "######## $b"
    "$b"
    echo
  done
} | tee bench_output.txt

echo "Done. Tables: bench_output.txt, CSVs: $PD_BENCH_CSV_DIR/"
