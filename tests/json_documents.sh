#!/bin/sh
# Every document hopp-sweep and hopp-replay write is valid JSON for any
# input they accept, and the parser takes only JSON. `--ratio .5` must
# be written as 0.5, and a trace path holding `"` and `\` must be
# escaped: hopp-report parses both documents. A document with non-JSON
# numbers (hex, `+1`, `.5`, `1.`, `007`, `infinity`, `-nan`) is a parse
# error that hopp-report (exit 2) and hopp_trace (exit 1) report on one
# stderr line naming the file. A metrics CSV is held to the same bar:
# a cell that is not a number as a whole (`abc`, `5x`) or a row whose
# cell count differs from the header's makes hopp-report exit 2 with
# one stderr line naming the file and the line.
#
# usage: sh tests/json_documents.sh HOPP_RUN HOPP_SWEEP HOPP_REPLAY \
#            HOPP_REPORT HOPP_TRACE
run=$1
sweep=$2
replay=$3
report=$4
trace=$5
fail=0
tmp=$(mktemp -d json_documents.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

bad() {
    echo "FAIL: $*"
    fail=1
}

small="--workload microbench --scale 0.1 --iterations 0.2"

# shellcheck disable=SC2086
"$sweep" $small --ratio .5 --out "$tmp/sweep.json" ||
    bad "hopp-sweep --ratio .5 exited $?"
grep -q '^      "ratio": 0.5,$' "$tmp/sweep.json" ||
    bad "the sweep document does not hold \"ratio\": 0.5"
"$report" --stats "$tmp/sweep.json" > /dev/null ||
    bad "hopp-report rejects the sweep document"

odd="$tmp/q\"x\\y.trc"
# shellcheck disable=SC2086
"$run" $small --record-trace "$odd" > /dev/null ||
    bad "hopp-run --record-trace exited $?"
"$replay" --trace "$odd" --out "$tmp/replay.json" ||
    bad "hopp-replay exited $?"
grep -qF "\"trace\": \"$tmp/q\\\"x\\\\y.trc\"," "$tmp/replay.json" ||
    bad "the replay document does not escape the trace path"
"$report" --stats "$tmp/replay.json" > /dev/null ||
    bad "hopp-report rejects the replay document"

printf '{"b": 0x10, "c": +1, "d": .5, "e": 1., "f": 007,
 "g": infinity, "h": -nan}\n' > "$tmp/numbers.json"
printf 'not json\n' > "$tmp/text.json"
for doc in "$tmp/numbers.json" "$tmp/text.json"; do
    for tool in "$report --stats" "$trace"; do
        # shellcheck disable=SC2086
        err=$($tool "$doc" 2>&1 >/dev/null)
        status=$?
        want=1
        [ "$tool" = "$trace" ] || want=2
        if [ "$status" -ne "$want" ]; then
            bad "$tool $doc: exited $status, want $want"
        elif [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ] ||
             ! printf '%s' "$err" | grep -q "$doc: .* at offset "; then
            bad "$tool $doc: want one stderr line naming the file" \
                "and the offset, got: $err"
        fi
    done
done
printf 'tick_ns,a\n0,abc\n100,5x\n' > "$tmp/word.csv"
printf 'tick_ns,a\n0,1\n100,5x\n' > "$tmp/suffix.csv"
printf 'tick_ns,a\n0,1\n100\n' > "$tmp/short.csv"
for spec in word.csv:2 suffix.csv:3 short.csv:3; do
    csv="$tmp/${spec%:*}"
    line=${spec#*:}
    err=$("$report" --metrics "$csv" 2>&1 >/dev/null)
    status=$?
    if [ "$status" -ne 2 ]; then
        bad "hopp-report --metrics $csv: exited $status, want 2"
    elif [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ] ||
         ! printf '%s' "$err" | grep -qF "$csv: line $line"; then
        bad "hopp-report --metrics $csv: want one stderr line naming" \
            "the file and line $line, got: $err"
    fi
done
exit $fail
