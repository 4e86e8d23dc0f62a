#!/usr/bin/env bash
# Crash-containment regression check for `critmem-sweep --isolate`.
#
#   check_isolation.sh SWEEP_BIN FAULT_SPEC CLEAN_SPEC
#
# 1. Containment: FAULT_SPEC (specs/isolation.sweep) carries one job
#    that raises SIGSEGV mid-simulation and one that allocates
#    unboundedly. Under --isolate --job-mem-mb the campaign must
#    COMPLETE (exit 2, not a crash), recording exactly those jobs as
#    status=crashed / status=oom while every healthy job stays ok.
#    Each job runs once: both failed records carry "attempts":1 and
#    no error text carries a repeat-offender note.
# 2. Byte-identity: CLEAN_SPEC results must be byte-identical between
#    in-process execution and --isolate, for --jobs 1 and --jobs 4.
# 3. Worker kill + resume: SIGKILL a live worker *child* (the
#    supervisor runs its job again), then
#    SIGKILL the supervisor itself and --resume; the result files
#    must be byte-identical to an uninterrupted isolated run.
#
# Sanitizer interplay: ASan intercepts SIGSEGV and turns allocation
# failure into a hard error by default, which would mask the very
# containment this script proves, so both knobs are disabled for the
# fault legs (handle_segv=0, allocator_may_return_null=1). The hog
# fault itself exhausts RLIMIT_AS via raw mmap rather than the heap
# (see check/fault_injector.cc) so the bad_alloc -> status=oom path
# is identical under plain and sanitized runtimes.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 SWEEP_BIN FAULT_SPEC CLEAN_SPEC" >&2
    exit 2
fi
sweep=$1
fault_spec=$2
clean_spec=$3
quota=${CRITMEM_ISOLATION_QUOTA:-2000}

export ASAN_OPTIONS="handle_segv=0:allocator_may_return_null=1:detect_leaks=0:abort_on_error=0"
export UBSAN_OPTIONS="handle_segv=0"
# die_after_fork=0: forked workers stay single-threaded and _exit(),
# which TSan supports but refuses by default out of caution.
export TSAN_OPTIONS="allocator_may_return_null=1:die_after_fork=0"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# --- 1. Containment -------------------------------------------------
rc=0
"$sweep" --spec "$fault_spec" --jobs 4 --isolate --job-mem-mb 512 \
    --out "$tmp/fault.jsonl" >/dev/null 2>"$tmp/fault.log" || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "FAIL: fault campaign exited $rc (want 2: completed with" \
         "failed jobs)" >&2
    cat "$tmp/fault.log" >&2
    exit 1
fi
if ! grep -q '"status":"crashed"' "$tmp/fault.jsonl"; then
    echo "FAIL: no status=crashed record for the SIGSEGV job" >&2
    exit 1
fi
if ! grep -q '"status":"oom"' "$tmp/fault.jsonl"; then
    echo "FAIL: no status=oom record for the memory-hog job" >&2
    exit 1
fi
if ! grep -q 'SIGSEGV' "$tmp/fault.log"; then
    echo "FAIL: crashed record does not name the fatal signal" >&2
    exit 1
fi
for status in crashed oom; do
    if ! grep -q "\"status\":\"$status\",\"attempts\":1," \
            "$tmp/fault.jsonl"; then
        echo "FAIL: the $status record does not carry attempts=1" \
             "(a failed job must run exactly once)" >&2
        exit 1
    fi
done
if grep -q 'quarant' "$tmp/fault.log" "$tmp/fault.jsonl"; then
    echo "FAIL: a failed job carries a repeat-offender note" >&2
    exit 1
fi
oks=$(grep -c '"status":"ok"' "$tmp/fault.jsonl" || true)
if [ "$oks" -lt 3 ]; then
    echo "FAIL: healthy jobs did not survive the faulting ones" \
         "(ok=$oks, want 3)" >&2
    exit 1
fi
echo "isolation: faults contained (crashed + oom recorded, $oks ok)"

# --- 2. Byte-identity in-process vs --isolate -----------------------
"$sweep" --spec "$clean_spec" --quota "$quota" --jobs 4 --stats \
    --out "$tmp/ref.jsonl" --csv "$tmp/ref.csv" >/dev/null 2>&1
for j in 1 4; do
    "$sweep" --spec "$clean_spec" --quota "$quota" --jobs "$j" \
        --stats --isolate \
        --out "$tmp/iso$j.jsonl" --csv "$tmp/iso$j.csv" \
        >/dev/null 2>&1
    for ext in jsonl csv; do
        if ! cmp -s "$tmp/ref.$ext" "$tmp/iso$j.$ext"; then
            echo "FAIL: --isolate --jobs $j $ext differs from" \
                 "in-process run" >&2
            exit 1
        fi
    done
done
echo "isolation: results byte-identical with and without --isolate"

# --- 3. SIGKILL a worker child, then the supervisor, then resume ----
camp="$tmp/campaign"
"$sweep" --spec "$clean_spec" --quota "$quota" --jobs 2 --stats \
    --isolate --campaign "$camp" \
    --out "$tmp/run.jsonl" --csv "$tmp/run.csv" >/dev/null 2>&1 &
pid=$!

# First casualty: a worker child (the supervisor must absorb the
# external SIGKILL and run the job again).
worker_killed=0
for _ in $(seq 1 600); do
    kill -0 "$pid" 2>/dev/null || break
    child=$(ps --ppid "$pid" -o pid= 2>/dev/null |
                head -1 | tr -d ' ' || true)
    if [ -n "$child" ]; then
        kill -9 "$child" 2>/dev/null && worker_killed=1
        break
    fi
    sleep 0.02
done

# Second casualty: the supervisor itself, once some jobs are durable.
journal="$camp/journal.txt"
killed=0
for _ in $(seq 1 2400); do
    kill -0 "$pid" 2>/dev/null || break
    if [ -f "$journal" ] && [ "$(wc -l < "$journal")" -ge 2 ]; then
        kill -9 "$pid" 2>/dev/null || true
        killed=1
        break
    fi
    sleep 0.05
done
wait "$pid" 2>/dev/null || true
echo "isolation: worker_killed=$worker_killed supervisor_killed=$killed"

# No lingering orphans: a SIGKILLed supervisor cannot clean up, but a
# surviving worker hits EPIPE on its dead pipe and _exit()s as soon
# as its (tiny-quota) job finishes — within seconds, not forever.
for _ in $(seq 1 100); do
    pgrep -f -- "--campaign $camp" >/dev/null 2>&1 || break
    sleep 0.1
done
if pgrep -f -- "--campaign $camp" >/dev/null 2>&1; then
    echo "FAIL: worker processes still alive after the supervisor" \
         "died" >&2
    exit 1
fi

"$sweep" --resume "$camp" --jobs 4 --isolate >/dev/null 2>&1
for ext in jsonl csv; do
    if ! cmp -s "$tmp/ref.$ext" "$tmp/run.$ext"; then
        echo "FAIL: resumed isolated $ext differs from reference" >&2
        diff "$tmp/ref.$ext" "$tmp/run.$ext" >&2 || true
        exit 1
    fi
done
echo "isolation: kill-worker/kill-supervisor/resume byte-identical"
