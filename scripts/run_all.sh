#!/usr/bin/env bash
# Regenerate every artifact: build, test suite (plain and sanitized),
# checked smoke runs, then every figure spec and the micro-benchmarks.
# CRITMEM_INSTRS scales simulation length (the --quota of the figure
# specs; each spec's warmup is half its quota).
# CRITMEM_SKIP_ASAN=1 / CRITMEM_SKIP_TSAN=1 skip the sanitizer passes
# (e.g. no clean rebuild budget); CRITMEM_SKIP_CHECKED=1 skips the
# checked smoke runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build -j"$(nproc)"

# Static analysis first: critmem-lint over the checkout (per-file
# source rules — determinism, clock domains, protocol and hygiene —
# and stale suppressions).
# Cheap, and a violation here fails fast before any sanitizer
# rebuild.
cmake --build build --target lint

# The suite includes every end-to-end check once: kill/resume over
# fig10 and the traces (Exec.ResumeByteIdentical,
# Exec.ResumeTraceByteIdentical), the arena (Arena.Smoke), --isolate
# crash containment (Exec.IsolationByteIdentical), cycle skipping
# (Skip.Equivalence) and determinism (Determinism.ByteIdentical).
ctest --test-dir build --output-on-failure | tee test_output.txt

# ASan+UBSan pass: the whole suite again under the sanitizers
# (includes TraceFuzz.Corpus, so the 10k-mutant seed-1 fuzz run
# happens under ASan/UBSan too, and Exec.IsolationByteIdentical, so
# crash containment is checked under ASan), plus a second fuzz run on
# a different seed so the sanitized pass covers mutants the plain
# ctest run never saw.
if [ "${CRITMEM_SKIP_ASAN:-0}" != "1" ]; then
    cmake -B build-asan -DCRITMEM_SANITIZE=ON
    cmake --build build-asan -j"$(nproc)"
    ctest --test-dir build-asan --output-on-failure \
        | tee test_output_asan.txt
    ./build-asan/examples/critmem-tracefuzz \
        --corpus tests/trace/fixtures --iterations 10000 --seed 2 \
        --scratch build-asan/tracefuzz.scratch --quiet
fi

# TSan pass: the execution engine's worker pool and a parallel sweep
# under ThreadSanitizer.
if [ "${CRITMEM_SKIP_TSAN:-0}" != "1" ]; then
    cmake -B build-tsan -DCRITMEM_SANITIZE=thread
    cmake --build build-tsan -j"$(nproc)"
    ctest --test-dir build-tsan -R '^Exec|^Campaign' --output-on-failure \
        | tee test_output_tsan.txt
    ./build-tsan/examples/critmem-sweep --spec specs/fig10.sweep \
        --quota 1000 --jobs 4 --out /dev/null
fi

# Protocol-checked smoke runs: the Fig. 10 campaign (one job per
# scheduler family and app) with the invariant checker attached to
# every job (a violation fails the job and critmem-sweep exits 2),
# plus a CLI run per scheduler.
if [ "${CRITMEM_SKIP_CHECKED:-0}" != "1" ]; then
    for sched in fcfs frfcfs crit-casras casras-crit parbs tcm \
                 tcm-crit ahb morse crit-rl atlas minimalist \
                 bliss batch-cap-rr dyn-thresh-crit; do
        ./build/examples/critmem-sim --app art --sched "$sched" \
            --instrs 4000 --check --quiet >/dev/null
    done
    ./build/examples/critmem-sweep --spec specs/fig10.sweep --check \
        --quota "${CRITMEM_INSTRS:-8000}" > /dev/null
fi

{
    # Every reproduced figure and table is a sweep spec; each runs
    # with the --report layout(s) named in its header.
    for spec in specs/fig*.sweep specs/sec*.sweep specs/ext-*.sweep \
                specs/table*.sweep specs/ablation-*.sweep; do
        reports=$(grep '^#' "$spec" | grep -oE -- '--report [^ \\]+')
        echo "=== $spec ==="
        # shellcheck disable=SC2086  # one word per flag and layout
        ./build/examples/critmem-sweep --spec "$spec" \
            ${CRITMEM_INSTRS:+--quota "$CRITMEM_INSTRS"} \
            $reports --jobs "$(nproc)"
    done
} | tee bench_output.txt

# Micro-benchmarks + perf gate: a fresh statistical run compared
# against the committed BENCH_micro.json baseline. The cycle-skip
# speedup floor always holds (it is a same-host ratio); absolute
# per-kernel times only warn unless CRITMEM_PERF_STRICT=1 (shared
# runners have too much wall-clock noise to hard-fail on them).
CRITMEM_BENCH_OUT=build/bench_current.json ./scripts/run_bench.sh \
    | tee -a bench_output.txt
./scripts/check_perf.sh build/bench_current.json BENCH_micro.json
