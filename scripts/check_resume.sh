#!/usr/bin/env bash
# Crash-safety regression check: a campaign that is SIGKILLed
# mid-flight and resumed must produce result files byte-identical to
# an uninterrupted run.
#
#   check_resume.sh SWEEP_BIN SPEC_FILE
#
# 1. Reference: an uninterrupted run of SPEC_FILE, JSONL + CSV.
# 2. The same run with --campaign DIR, SIGKILLed (no chance to clean
#    up) as soon as the journal holds a few completed jobs, unless it
#    has already journaled all of them.
# 3. Assert the kill left no torn result file (AtomicFile staging
#    means the target paths must not exist yet).
# 4. --resume DIR --report with a typo must be rejected before any
#    job is dispatched.
# 5. --resume DIR, then byte-compare JSONL and CSV against the
#    reference.
#
# CRITMEM_RESUME_QUOTA scales the per-core quota (default 2000); the
# run must be long enough for the kill to land mid-campaign, but a
# kill after completion is also tolerated (resume then replays
# everything, which must still be byte-identical).
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SWEEP_BIN SPEC_FILE" >&2
    exit 2
fi
sweep=$1
spec=$2
quota=${CRITMEM_RESUME_QUOTA:-2000}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# --stats embeds each job's full stats tree in the JSONL records, so
# the byte-compare below covers stats-JSON as well.
"$sweep" --spec "$spec" --quota "$quota" --jobs 4 --stats \
    --out "$tmp/ref.jsonl" --csv "$tmp/ref.csv" >/dev/null 2>&1
echo "resume: reference run complete"

camp="$tmp/campaign"
"$sweep" --spec "$spec" --quota "$quota" --jobs 4 --stats \
    --campaign "$camp" \
    --out "$tmp/run.jsonl" --csv "$tmp/run.csv" >/dev/null 2>&1 &
pid=$!

# Wait until a few jobs are journaled, then kill without warning.
# The process is frozen (SIGSTOP) before the decision: only a campaign
# with jobs still unjournaled is mid-flight and gets the SIGKILL. One
# that already journaled every job may have published its results, so
# it is resumed and counts as finished before we could kill it.
# A campaign that exits between the liveness probe and SIGSTOP is a
# zombie the shell may reap at any moment, so a later signal to it can
# fail with "No such process"; that is the finished case, not an error.
journal="$camp/journal.txt"
killed=0
for _ in $(seq 1 2400); do
    if ! kill -0 "$pid" 2>/dev/null; then
        break # finished before we could kill it; resume still works
    fi
    if [ -f "$journal" ] && [ "$(wc -l < "$journal")" -ge 3 ]; then
        kill -STOP "$pid" 2>/dev/null || break
        total=$(awk '$1 == "jobs" { print $3 }' "$camp/manifest.txt")
        if [ -z "$total" ]; then
            kill -9 "$pid" 2>/dev/null || true
            echo "FAIL: campaign manifest records no job count" >&2
            exit 1
        fi
        if [ "$(wc -l < "$journal")" -lt "$total" ]; then
            if kill -9 "$pid" 2>/dev/null; then
                killed=1
            fi
        else
            kill -CONT "$pid" 2>/dev/null || true
        fi
        break
    fi
    sleep 0.05
done
wait "$pid" 2>/dev/null || true

if [ ! -f "$journal" ]; then
    echo "FAIL: campaign journal was never created" >&2
    exit 1
fi
echo "resume: killed=$killed with $(wc -l < "$journal") journaled jobs"

# AtomicFile staging: the SIGKILL must not have published a partial
# result file (a stale *.tmp is fine, a torn target is not).
if [ "$killed" = "1" ]; then
    for f in "$tmp/run.jsonl" "$tmp/run.csv"; do
        if [ -f "$f" ]; then
            echo "FAIL: $f exists after SIGKILL (torn result)" >&2
            exit 1
        fi
    done
fi

# A mistyped --report on --resume is a usage error, checked against
# the manifest's spec before any job is dispatched: exit 1 with the
# message, and the journal untouched.
journaled=$(wc -l < "$journal")
rc=0
err=$("$sweep" --resume "$camp" --jobs 4 --report speedup:bsae 2>&1 \
    >/dev/null) || rc=$?
if [ "$rc" != 1 ] || [[ "$err" != *"unknown --report 'speedup:bsae'"* ]] \
    || [ "$(wc -l < "$journal")" != "$journaled" ]; then
    echo "FAIL: --resume --report speedup:bsae was not rejected up" \
        "front (exit $rc): $err" >&2
    exit 1
fi
echo "resume: --report typo rejected before dispatch"

"$sweep" --resume "$camp" --jobs 4 >/dev/null 2>&1
for ext in jsonl csv; do
    if ! cmp -s "$tmp/ref.$ext" "$tmp/run.$ext"; then
        echo "FAIL: resumed $ext differs from uninterrupted run" >&2
        diff "$tmp/ref.$ext" "$tmp/run.$ext" >&2 || true
        exit 1
    fi
done
echo "resume: killed-and-resumed campaign byte-identical to reference"
