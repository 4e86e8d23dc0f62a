#!/usr/bin/env bash
# Determinism regression check: simulation results must be a pure
# function of (workload, config, seed), independent of wall-clock,
# host entropy and worker-pool interleaving.
#
#   check_determinism.sh SIM_BIN SWEEP_BIN SPEC_FILE
#
# 1. critmem-sim twice with the same seed: --stats-json output must be
#    byte-identical.
# 2. critmem-sweep over SPEC_FILE with --jobs 1 vs --jobs 4: result
#    files and the --report speedup:base and stat: tables (SPEC_FILE
#    needs a variant named base) must be byte-identical (the scheduler
#    hands results to the sink in spec order regardless of completion
#    order).
# 3. Two critmem-lint --json runs over the checkout must be
#    byte-identical.
#
# Determinism across a SIGKILL/--resume, cycle skipping on vs off, the
# arena and --isolate have their own ctests (Exec.ResumeByteIdentical,
# Skip.Equivalence, Arena.Smoke, Exec.IsolationByteIdentical); this
# script does not run them again.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 SIM_BIN SWEEP_BIN SPEC_FILE" >&2
    exit 2
fi
sim=$1
sweep=$2
spec=$3

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run_sim() {
    "$sim" --app art --sched casras-crit --instrs 20000 --seed 7 \
        --stats-json "$1" --quiet >/dev/null
}
run_sim "$tmp/sim_a.json"
run_sim "$tmp/sim_b.json"
if ! cmp -s "$tmp/sim_a.json" "$tmp/sim_b.json"; then
    echo "FAIL: critmem-sim --stats-json differs across identical runs" >&2
    diff "$tmp/sim_a.json" "$tmp/sim_b.json" >&2 || true
    exit 1
fi
echo "sim: two identical-seed runs byte-identical"

for jobs in 1 4; do
    "$sweep" --spec "$spec" --quota 1000 --jobs "$jobs" \
        --out "$tmp/sweep_$jobs.jsonl" --report speedup:base \
        --report stat:blockingLoads/dynamicLoads,l2MissLatCrit \
        >"$tmp/report_$jobs.txt" 2>/dev/null
done
for out in sweep_1.jsonl:sweep_4.jsonl report_1.txt:report_4.txt; do
    if ! cmp -s "$tmp/${out%%:*}" "$tmp/${out##*:}"; then
        echo "FAIL: critmem-sweep ${out%%:*} depends on --jobs" >&2
        diff "$tmp/${out%%:*}" "$tmp/${out##*:}" >&2 || true
        exit 1
    fi
done
if [ "$(grep -c '^Average ' "$tmp/report_1.txt")" != 2 ] ||
    ! grep -q '^Max ' "$tmp/report_1.txt"; then
    echo "FAIL: the speedup and stat reports lack their Average/Max rows" >&2
    exit 1
fi
echo "sweep: --jobs 1 and --jobs 4 results, speedup and stat reports byte-identical"

# 3. The lint tool itself must be deterministic: two critmem-lint
#    --json runs over the same checkout (sorted file walk, every
#    rule, suppression bookkeeping and all) must emit byte-identical
#    reports.
lint=$(dirname "$sim")/critmem-lint
if [ -x "$lint" ]; then
    root=$(cd "$(dirname "$0")/.." && pwd)
    "$lint" --root "$root" --json "$tmp/lint_a.json" >/dev/null 2>&1 || true
    "$lint" --root "$root" --json "$tmp/lint_b.json" >/dev/null 2>&1 || true
    if ! cmp -s "$tmp/lint_a.json" "$tmp/lint_b.json"; then
        echo "FAIL: critmem-lint --json differs across identical runs" >&2
        diff "$tmp/lint_a.json" "$tmp/lint_b.json" >&2 || true
        exit 1
    fi
    echo "lint: two --json runs byte-identical"
fi
