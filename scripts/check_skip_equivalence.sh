#!/usr/bin/env bash
# Cycle-skip equivalence check: event-driven fast-forwarding is a
# pure simulator-speed optimization, so for any workload and config
# the full --stats-json tree must be byte-identical with the skip on
# (--cycle-skip, the default) and off (--no-cycle-skip).
#
#   check_skip_equivalence.sh SIM_BIN
#
# The matrix covers the shapes that exercise different skip paths: a
# parallel app with the paper's scheduler+predictor, a multiprogrammed
# bundle, an --alone run (7 of 8 cores permanently idle, the
# best-case skip), a modern-controller config (closed page + split
# write queue + prefetcher), a checked run (the protocol checker and
# watchdogs must observe the exact same cycles), a trace-backed
# job replaying an external trace file, and two single-channel runs
# whose DRAM queue overflows (blocked L2 misses and writebacks wait
# in the hierarchy's per-channel FIFOs; each of these must report
# dramRejects > 0, so the matrix cannot silently stop covering the
# blocked path).
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 SIM_BIN" >&2
    exit 2
fi
sim=$1
root="$(cd "$(dirname "$0")/.." && pwd)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

check() {
    local name=$1
    shift
    "$sim" "$@" --cycle-skip --stats-json "$tmp/on.json" \
        --quiet >/dev/null
    "$sim" "$@" --no-cycle-skip --stats-json "$tmp/off.json" \
        --quiet >/dev/null
    if ! cmp -s "$tmp/on.json" "$tmp/off.json"; then
        echo "FAIL: $name: stats differ with cycle skipping on/off" >&2
        diff "$tmp/on.json" "$tmp/off.json" >&2 || true
        exit 1
    fi
    echo "skip-equivalence: $name byte-identical"
}

# Like check, then require that the run blocked DRAM requests.
check_saturated() {
    local name=$1
    check "$@"
    local rejects
    rejects=$(grep -o '"dramRejects": *[0-9]*' "$tmp/on.json" |
              grep -o '[0-9]*$' || true)
    if [ -z "$rejects" ] || [ "$rejects" -eq 0 ]; then
        echo "FAIL: $name: expected a saturated run, but" \
             "dramRejects=${rejects:-missing}" >&2
        exit 1
    fi
    echo "skip-equivalence: $name blocked $rejects DRAM requests"
}

check "parallel art + casras-crit/maxstall" \
    --app art --sched casras-crit --predictor maxstall --instrs 6000
check "bundle RFGI + parbs/binary" \
    --bundle RFGI --sched parbs --predictor binary --instrs 4000
check "mcf --alone + tcm" \
    --app mcf --alone --sched tcm --instrs 4000
check "swim modern controller" \
    --app swim --sched frfcfs --closed-page --split-wq --prefetch \
    --instrs 6000
check "ocean + atlas/totalstall --check" \
    --app ocean --sched atlas --predictor totalstall --check \
    --instrs 4000
check "trace mix4 + casras-crit/maxstall" \
    --trace "$root/tests/trace/fixtures/mix4.cbin" \
    --sched casras-crit --predictor maxstall --instrs 2000
check_saturated "saturated fft + parbs, 1 channel" \
    --app fft --sched parbs --channels 1 --instrs 6000
check_saturated "saturated art + casras-crit/maxstall, 1 channel 1 rank" \
    --app art --sched casras-crit --predictor maxstall --channels 1 \
    --ranks 1 --instrs 6000

echo "cycle-skip equivalence: all configs byte-identical"
