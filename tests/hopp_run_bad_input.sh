#!/bin/sh
# Boundary validation of hopp-run's numeric flags. Every bad input must
# exit with status exactly 2 and print one stderr line naming the flag;
# the in-range edge (--ratio 1) must still run.
#
# usage: sh tests/hopp_run_bad_input.sh path/to/hopp-run
run=$1
fail=0
for args in "--ratio -1" "--ratio 0" "--ratio 1.5" "--ratio nan" \
            "--scale 0" "--scale -2" "--iterations 0" "--iterations -1" \
            "--channels 0" "--channels 3" "--channels 6"; do
    flag=${args%% *}
    # Small defaults first, so a missing check runs fast instead of
    # simulating the full-size workload; the bad flag overrides them.
    err=$("$run" --workload microbench --scale 0.05 --iterations 0.1 \
          $args 2>&1 >/dev/null)
    status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: hopp-run $args exited $status, want 2"
        fail=1
    elif [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ] ||
         ! printf '%s' "$err" | grep -q -- "$flag"; then
        echo "FAIL: hopp-run $args: want one stderr line naming $flag," \
             "got: $err"
        fail=1
    fi
done
if ! "$run" --workload microbench --ratio 1 --scale 0.05 \
        --iterations 0.1 >/dev/null; then
    echo "FAIL: hopp-run --ratio 1 must be accepted"
    fail=1
fi
exit $fail
