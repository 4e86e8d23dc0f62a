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
# at a time. Exit 0 when every config matches, 1 otherwise (each
# mismatching config is listed), 2 on bad usage.
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
if [ $# -eq 3 ]; then
    app_instrs=20000
    bundle_instrs=3000
fi

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
    exit 1
fi
echo "same output: $total configs byte-identical"
