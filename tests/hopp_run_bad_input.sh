#!/bin/sh
# Boundary validation of the numeric flags hopp-run, hopp-sweep,
# hopp-replay and hopp_trace share, and of the --workload and --system
# names. Every bad input must exit with status exactly 2 and print one
# stderr line naming the flag. A numeric value is parsed whole, so
# trailing garbage (--ratio 0.5abc, --seed 1x) is as bad as an
# out-of-range number. The in-range edges (--ratio 1, --channels 2,
# --tiers 15, --pid 65535), a short --metrics-period and a Depth-N
# --depth must still run.
#
# usage: sh tests/hopp_run_bad_input.sh HOPP_RUN HOPP_SWEEP HOPP_REPLAY \
#            HOPP_TRACE
run=$1
sweep=$2
replay=$3
trace=$4
fail=0
tmp=$(mktemp -d bad_input.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

# Small defaults first, so a missing check runs fast instead of
# simulating the full-size workload; the bad flag overrides them.
small="--workload microbench --scale 0.05 --iterations 0.1"

# expect_reject TOOL ARGS...: the last two ARGS are the bad flag and
# its value.
expect_reject() {
    tool=$1
    shift
    eval "flag=\${$(($# - 1))}"
    err=$("$tool" "$@" 2>&1 >/dev/null)
    status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: $(basename "$tool") $*: exited $status, want 2"
        fail=1
    elif [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ] ||
         ! printf '%s' "$err" | grep -q -- "$flag"; then
        echo "FAIL: $(basename "$tool") $*: want one stderr line" \
             "naming $flag, got: $err"
        fail=1
    fi
}

for args in "--ratio -1" "--ratio 0" "--ratio 1.5" "--ratio nan" \
            "--ratio 0.5abc" "--scale 0" "--scale -2" "--scale 0.1x" \
            "--iterations 0" "--iterations -1" "--iterations 0.1z" \
            "--seed abc" "--seed 1x" "--seed -1" \
            "--workload nosuch" "--system nosuch"; do
    # shellcheck disable=SC2086
    expect_reject "$run" $small $args
    # shellcheck disable=SC2086
    expect_reject "$sweep" $small --out "$tmp/sweep.json" $args
done
for args in "--channels 0" "--channels 3" "--channels 6" \
            "--channels 2abc" \
            "--tiers 0" "--tiers 16" "--tiers 99" "--tiers -1" \
            "--tiers abc" "--tiers 1.5" "--tiers 3x" \
            "--depth 0" "--depth -5" "--depth abc" "--depth 8abc" \
            "--depth 1025" "--check -1" "--check 5x" "--check abc"; do
    # shellcheck disable=SC2086
    expect_reject "$run" $small $args
done
for args in "--jobs abc" "--jobs -1" "--jobs 2x"; do
    # shellcheck disable=SC2086
    expect_reject "$sweep" $small --out "$tmp/sweep.json" $args
done
# The MC-side stats exist only under HoPP: a run that cannot write them
# is refused before it simulates, and leaves no file behind.
# shellcheck disable=SC2086
expect_reject "$run" $small --system fastswap --mc-stats-json "$tmp/mc.json"
if [ -e "$tmp/mc.json" ]; then
    echo "FAIL: hopp-run --system fastswap wrote --mc-stats-json"
    fail=1
fi
for period in 0 -3 abc; do
    # shellcheck disable=SC2086
    expect_reject "$run" $small --metrics-out "$tmp/m.csv" \
        --metrics-period "$period"
done

# hopp-replay needs a trace to get as far as its flag checks, and
# hopp_trace a Chrome trace to summarize.
# shellcheck disable=SC2086
if ! "$run" $small --record-trace "$tmp/t.trc" \
        --trace-out "$tmp/t.json" >/dev/null; then
    echo "FAIL: could not record traces for hopp-replay and hopp_trace"
    exit 1
fi
for args in "--top abc" "--top 0" "--top -1" "--top 3x"; do
    # shellcheck disable=SC2086
    expect_reject "$trace" --summary "$tmp/t.json" $args
done
for args in "--channels 0" "--channels 3" "--channels 6" \
            "--channels 2abc" \
            "--tiers 0" "--tiers 99" "--tiers abc" "--tiers -1"; do
    # shellcheck disable=SC2086
    expect_reject "$replay" --trace "$tmp/t.trc" --out "$tmp/r.json" $args
done
# A bad mask anywhere in a repeated --tiers grid axis is rejected.
expect_reject "$replay" --trace "$tmp/t.trc" --out "$tmp/r.json" \
    --tiers 7 --tiers 0
for args in "--threshold 0" "--threshold -1" "--threshold abc"; do
    # shellcheck disable=SC2086
    expect_reject "$replay" --trace "$tmp/t.trc" --out "$tmp/r.json" $args
done
# Likewise a bad value anywhere in a repeated --threshold axis.
expect_reject "$replay" --trace "$tmp/t.trc" --out "$tmp/r.json" \
    --threshold 4 --threshold 0
for args in "--jobs abc" "--jobs -1" "--jobs 2x"; do
    # shellcheck disable=SC2086
    expect_reject "$replay" --trace "$tmp/t.trc" --out "$tmp/r.json" $args
done

# The ChampSim importer's --pid must fit the RPT's 16-bit field and
# --tick-per-instr must be a whole number >= 1. The input is one
# 64-byte instruction that loads from 0x1000, so an unchecked pid of
# 70000 would reach Pid's range assert (an abort, 134) in the importer.
{ head -c 33 /dev/zero; printf '\020'; head -c 30 /dev/zero; } \
    > "$tmp/load.champsim"
for args in "--pid 0" "--pid 70000" "--pid abc" \
            "--tick-per-instr 0" "--tick-per-instr abc"; do
    # shellcheck disable=SC2086
    expect_reject "$replay" --import-champsim "$tmp/load.champsim" \
        --trace "$tmp/imp.trc" $args
done

# shellcheck disable=SC2086
if ! "$run" $small --ratio 1 >/dev/null; then
    echo "FAIL: hopp-run --ratio 1 must be accepted"
    fail=1
fi
# shellcheck disable=SC2086
if ! "$sweep" $small --ratio 1 --out "$tmp/sweep.json"; then
    echo "FAIL: hopp-sweep --ratio 1 must be accepted"
    fail=1
fi
if ! "$replay" --trace "$tmp/t.trc" --channels 2 --out "$tmp/r.json"; then
    echo "FAIL: hopp-replay --channels 2 must be accepted"
    fail=1
fi
# shellcheck disable=SC2086
if ! "$run" $small --tiers 15 >/dev/null; then
    echo "FAIL: hopp-run --tiers 15 must be accepted"
    fail=1
fi
# shellcheck disable=SC2086
if ! "$run" $small --seed 0 --check 1000 >/dev/null; then
    echo "FAIL: hopp-run --seed 0 --check 1000 must be accepted"
    fail=1
fi
if ! "$trace" --summary --top 1 "$tmp/t.json" >/dev/null; then
    echo "FAIL: hopp_trace --top 1 must be accepted"
    fail=1
fi
# shellcheck disable=SC2086
if ! "$run" $small --system depth-n --depth 16 >/dev/null; then
    echo "FAIL: hopp-run --system depth-n --depth 16 must be accepted"
    fail=1
fi
# shellcheck disable=SC2086
if ! "$run" $small --metrics-out "$tmp/m.csv" --metrics-period 1000 \
        >/dev/null || ! test -s "$tmp/m.csv"; then
    echo "FAIL: hopp-run --metrics-period 1000 must be accepted"
    fail=1
fi
if ! "$replay" --trace "$tmp/t.trc" --tiers 1 --tiers 15 \
        --out "$tmp/r.json"; then
    echo "FAIL: hopp-replay --tiers 1 --tiers 15 must be accepted"
    fail=1
fi
if ! "$replay" --trace "$tmp/t.trc" --threshold 4 --out "$tmp/r.json"; then
    echo "FAIL: hopp-replay --threshold 4 must be accepted"
    fail=1
fi
head -c 64 /dev/zero > "$tmp/zero.champsim"
for input in zero load; do
    if ! "$replay" --import-champsim "$tmp/$input.champsim" \
            --trace "$tmp/imp.trc" --pid 65535 >/dev/null; then
        echo "FAIL: hopp-replay --import-champsim $input.champsim" \
             "--pid 65535 must be accepted"
        fail=1
    fi
done
exit $fail
