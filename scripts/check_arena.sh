#!/usr/bin/env bash
# Scheduler-arena smoke + determinism check: a tiny-quota run of the
# full tournament must produce a leaderboard and a fairness:parbs
# table that are byte-identical for --jobs 1 vs --jobs 4, and the
# leaderboard must rank every registered scheduler.
#
#   check_arena.sh SWEEP_BIN SPEC_FILE
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SWEEP_BIN SPEC_FILE" >&2
    exit 2
fi
sweep=$1
spec=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run_arena() {
    "$sweep" --spec "$spec" --quota 400 --jobs "$1" \
        --out "$tmp/arena_$1.jsonl" --report fairness:parbs \
        --report arena > "$tmp/report_$1.txt"
}
run_arena 1
run_arena 4

if ! cmp -s "$tmp/report_1.txt" "$tmp/report_4.txt"; then
    echo "FAIL: arena leaderboard or fairness table depends on --jobs" >&2
    diff "$tmp/report_1.txt" "$tmp/report_4.txt" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/arena_1.jsonl" "$tmp/arena_4.jsonl"; then
    echo "FAIL: arena result records depend on --jobs" >&2
    diff "$tmp/arena_1.jsonl" "$tmp/arena_4.jsonl" >&2 || true
    exit 1
fi

# The overall table must rank at least 8 schedulers.
ranked=$(sed -n '/^== overall/,$p' "$tmp/report_1.txt" \
    | grep -cE '^ +[0-9]+ ' || true)
if [ "$ranked" -lt 8 ]; then
    echo "FAIL: overall leaderboard ranks only $ranked schedulers (< 8)" >&2
    cat "$tmp/report_1.txt" >&2
    exit 1
fi

# The fairness table must have a row per bundle plus Average.
if ! grep -q '^Average ' "$tmp/report_1.txt"; then
    echo "FAIL: --report fairness:parbs printed no Average row" >&2
    exit 1
fi

# And the records must carry the fairness metrics.
if ! grep -q '"weightedSpeedup"' "$tmp/arena_1.jsonl"; then
    echo "FAIL: arena records carry no fairness metrics" >&2
    exit 1
fi

echo "arena: leaderboard and fairness table byte-identical across --jobs, $ranked schedulers ranked"
