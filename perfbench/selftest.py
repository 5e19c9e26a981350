#!/usr/bin/env python3
"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs all four workloads in one quick-mode
process, with --trace 0 and --trace 1, on a held-out seed that no
tuning used. (BENCHMARK.json gates three of them; sort-writeback runs by
name, see README.md.) Checks that:

- every end-to-end and per-layer metric named in BENCHMARK.json is
  emitted for every workload, with its unit, as a finite number, and
  no other metric is;
- no operation failed;
- every span file passes `hopp_trace --check --summary`.

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HELD_OUT_SEED = "917"
WORKLOADS = ["seq-stream", "graph-gather", "sort-writeback", "replay-sweep"]


def run(trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
           "--quick", "--seed", HELD_OUT_SEED, "--seconds", "1",
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if out.returncode != 0:
        return None, ["run with --trace %d exited %d" % (trace, out.returncode)]
    return json.loads(out.stdout.strip().splitlines()[-1]), []


def check(result, expected):
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append("failed operations: %d" % result["failed"])
    if result["attempted"] < len(WORKLOADS):
        problems.append("too few operations: %d" % result["attempted"])
    want = {"%s/%s" % (w, m["name"]): m["unit"]
            for w in WORKLOADS for m in expected}
    got = result["metrics"]
    for key in sorted(set(want) - set(got)):
        problems.append("missing metric " + key)
    for key in sorted(set(got) - set(want)):
        problems.append("unexpected metric " + key)
    for key in sorted(set(want) & set(got)):
        if got[key]["unit"] != want[key]:
            problems.append("%s: unit %s, want %s"
                            % (key, got[key]["unit"], want[key]))
        if not math.isfinite(got[key]["value"]):
            problems.append("%s: value %r" % (key, got[key]["value"]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    problems = [] if set(names) <= set(WORKLOADS) else ["workloads %s" % names]
    for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        result, p = run(trace)
        problems += p
        if result is not None:
            problems += ["trace %d: %s" % (trace, s)
                         for s in check(result, expected)]
    for w in WORKLOADS:
        spans = os.path.join(BUILD, "work", w + "-spans.json")
        tool = subprocess.run(
            [os.path.join(BUILD, "perfbench_hopp_trace"), "--check",
             "--summary", spans], stdout=subprocess.PIPE, text=True)
        if tool.returncode != 0 or "ok (" not in tool.stdout:
            problems.append("hopp_trace rejected " + spans)
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
