#!/usr/bin/env bash
# Output-identity check between two critmem-sim builds: a change meant
# to alter speed only (no simulated behaviour) must leave every run's
# stdout, stderr, exit code and --stats-json byte-identical.
#
#   check_same_output.sh OLD_BIN NEW_BIN [--quick]
#
# OLD_BIN and NEW_BIN are critmem-sim binaries, e.g. one built from the
# parent commit and one from the change. The matrix is 232 configs:
#   {art, fft, ocean, radix, mg, swim}
#     x {frfcfs, casras-crit+maxstall, parbs, tcm, morse, bliss+naive}
#     x {default, split-wq+closed-page+prefetch, --check, 1 channel,
#        --no-cycle-skip, --lq 8}                  at 120k instrs/core
#   {RFGI, AELV, GAMV, CMLI}
#     x {frfcfs, casras-crit+maxstall, parbs, atlas} --fairness at 12k
# --quick runs the same matrix at 20k / 3k instructions. Runs go four
# at a time.
#
# The matrix never reaches the campaign engine's fairness annotator,
# result sinks or journal. So when a critmem-sweep binary sits next to
# each critmem-sim (as in a CMake build tree), a campaign leg also runs
# the five specs/{arena,fig12,fig10,ext-schedulers,traces}.sweep under
# both builds with --stats --jobs 4 --out FILE at --quota 8000 (3000
# under --quick), and compares each spec's JSONL, exit code and stdout
# (the arena spec runs with --report arena; traces replays the
# checked-in trace fixtures). Without the sweep binaries the leg is skipped,
# and says so.
#
# Exit 0 when every config and spec matches, 1 otherwise (each
# mismatch is listed), 2 on bad usage.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ] ||
    { [ $# -eq 3 ] && [ "$3" != --quick ]; }; then
    echo "usage: $0 OLD_BIN NEW_BIN [--quick]" >&2
    exit 2
fi
old=$(realpath "$1")
new=$(realpath "$2")
for bin in "$old" "$new"; do
    if [ ! -x "$bin" ]; then
        echo "$0: $bin is not an executable" >&2
        exit 2
    fi
done
app_instrs=120000
bundle_instrs=12000
sweep_quota=8000
if [ $# -eq 3 ]; then
    app_instrs=20000
    bundle_instrs=3000
    sweep_quota=3000
fi
specs=$(cd "$(dirname "$0")/../specs" && pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

configs=$tmp/configs
: >"$configs"
for app in art fft ocean radix mg swim; do
    for sched in "frfcfs" "casras-crit --predictor maxstall" "parbs" \
                 "tcm" "morse" "bliss --predictor naive"; do
        for variant in "" "--split-wq --closed-page --prefetch" \
                       "--check" "--channels 1" "--no-cycle-skip" \
                       "--lq 8"; do
            echo "--app $app --sched $sched $variant --instrs $app_instrs" \
                >>"$configs"
        done
    done
done
for bundle in RFGI AELV GAMV CMLI; do
    for sched in "frfcfs" "casras-crit --predictor maxstall" "parbs" \
                 "atlas"; do
        echo "--bundle $bundle --sched $sched --fairness" \
             "--instrs $bundle_instrs" >>"$configs"
    done
done

# run_one N ARGS...: run config N under both binaries into $tmp/{old,new}.N.*
run_one() {
    local n=$1
    shift
    local side bin
    for side in old new; do
        bin=$old
        [ "$side" = new ] && bin=$new
        set +e
        "$bin" "$@" --quiet --stats-json "$tmp/$side.$n.json" \
            >"$tmp/$side.$n.out" 2>"$tmp/$side.$n.err"
        echo $? >"$tmp/$side.$n.code"
        set -e
    done
}
export -f run_one
export old new tmp

nl -nln -w1 -s' ' "$configs" |
    xargs -P 4 -L 1 bash -c 'run_one "$@"' _

total=0
failed=0
while read -r n args; do
    total=$((total + 1))
    for part in out err code json; do
        [ -e "$tmp/old.$n.$part" ] || [ -e "$tmp/new.$n.$part" ] ||
            continue # neither run wrote stats
        if ! cmp -s "$tmp/old.$n.$part" "$tmp/new.$n.$part"; then
            echo "DIFFERS ($part): critmem-sim $args"
            failed=$((failed + 1))
            break
        fi
    done
done < <(nl -nln -w1 -s' ' "$configs")

if [ "$failed" -ne 0 ]; then
    echo "FAIL: $failed of $total configs differ"
else
    echo "same output: $total configs byte-identical"
fi

old_sweep=$(dirname "$old")/critmem-sweep
new_sweep=$(dirname "$new")/critmem-sweep
if [ ! -x "$old_sweep" ] || [ ! -x "$new_sweep" ]; then
    echo "campaign leg skipped: no critmem-sweep next to both binaries"
    [ "$failed" -eq 0 ] || exit 1
    exit 0
fi

spec_total=0
spec_failed=0
for spec in arena fig12 fig10 ext-schedulers traces; do
    spec_total=$((spec_total + 1))
    report=()
    [ "$spec" = arena ] && report=(--report arena)
    for side in old new; do
        bin=$old_sweep
        [ "$side" = new ] && bin=$new_sweep
        set +e
        "$bin" --spec "$specs/$spec.sweep" --stats --jobs 4 \
            --quota "$sweep_quota" --out "$tmp/$side.$spec.jsonl" \
            "${report[@]}" >"$tmp/$side.$spec.out" 2>/dev/null
        echo $? >"$tmp/$side.$spec.code"
        set -e
    done
    for part in jsonl code out; do
        if ! cmp -s "$tmp/old.$spec.$part" "$tmp/new.$spec.$part"; then
            echo "DIFFERS ($part): critmem-sweep --spec" \
                 "specs/$spec.sweep --quota $sweep_quota"
            spec_failed=$((spec_failed + 1))
            break
        fi
    done
done

if [ "$spec_failed" -ne 0 ]; then
    echo "FAIL: $spec_failed of $spec_total campaign specs differ"
    exit 1
fi
echo "same output: $spec_total campaign specs byte-identical"
[ "$failed" -eq 0 ] || exit 1
