#!/usr/bin/env bash
# Reproduce the committed micro-benchmark baseline in one command:
# build bench_micro and emit BENCH_micro.json at the repo root (the
# google-benchmark JSON format check_perf.sh consumes).
#
#   run_bench.sh [extra google-benchmark flags...]
#
# The JSON captures per-kernel times (scheduler pick, CBP, CMAC,
# bank-timing update, DRAM channel tick/ready scan) plus the
# end-to-end System::run() pair that demonstrates the event-driven
# cycle-skip speedup (BM_SystemRunSkip vs BM_SystemRunNoSkip).
#
# Each kernel runs five times and only the mean/median/stddev/cv rows
# are written: on a shared host one run of an unchanged kernel can
# move by a third between runs, and check_perf.sh compares medians.
# Flags given on the command line come after these defaults, so they
# override them (e.g. --benchmark_repetitions=1).
set -euo pipefail
cd "$(dirname "$0")/.."

# CRITMEM_BENCH_OUT redirects the JSON (e.g. to a scratch file so
# check_perf.sh can diff a fresh run against the committed baseline).
out=${CRITMEM_BENCH_OUT:-BENCH_micro.json}

cmake -B build >/dev/null
cmake --build build -j"$(nproc)" --target bench_micro

./build/bench/bench_micro \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    "$@"

echo "wrote $out"
