#!/usr/bin/env python3
"""Self-test for tools/perf_gate, run by ctest (PerfGateTest).

Drives the gate end to end with stub runners instead of perfbench: each
case writes a BASE and a HEAD checkout holding a BENCHMARK.json whose
command is a stub script, plus the stub's canned result for that side.
Nothing is built.  Covers a pass within the bound, a lower-is-better and
a higher-is-better regression past it, an outlier the median absorbs, an
incorrect or crashed HEAD run, a higher failure share, a malformed last
line, a failed BASE run, bad arguments, and the cleared CARGO_TARGET_DIR.
"""

import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_gate")

# Prints a note line and then the canned result of stub.json in the
# current directory.  A metric given as a list takes its next value per
# run (a counter file in the directory counts the runs).  "last_line"
# replaces the result line; "exit" sets the exit code.
STUB = r'''
import json, os, sys
with open("stub.json") as f:
    stub = json.load(f)
run = int(open("runs").read()) if os.path.exists("runs") else 0
with open("runs", "w") as f:
    f.write(str(run + 1))
if os.environ.get("CARGO_TARGET_DIR") is not None:
    print("CARGO_TARGET_DIR leaked into the run", file=sys.stderr)
    sys.exit(3)
metrics = {}
for name, value in stub["metrics"].items():
    if isinstance(value, list):
        value = value[run % len(value)]
    metrics[name] = {"value": value, "unit": "ms"}
print("stub notes for", sys.argv[1:])
print(stub.get("last_line") or json.dumps({
    "correct": stub.get("correct", True),
    "attempted": stub.get("attempted", 100),
    "failed": stub.get("failed", 0),
    "metrics": metrics}))
sys.exit(stub.get("exit", 0))
'''

SPEC_METRICS = [
    {"name": "task_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]

GOOD = {"metrics": {"task_ms": 100.0, "rate": 1000.0}}

failures = []


def run_gate(tmp, base_stub, head_stub, env=None, args=None):
    stub_path = os.path.join(tmp, "stub.py")
    with open(stub_path, "w") as f:
        f.write(STUB)
    sides = {}
    for side, stub in (("base", base_stub), ("head", head_stub)):
        checkout = os.path.join(tmp, side)
        os.makedirs(checkout)
        spec = {"command": [sys.executable, stub_path],
                "workloads": [{"name": "w1"}],
                "end_to_end": SPEC_METRICS}
        with open(os.path.join(checkout, "BENCHMARK.json"), "w") as f:
            json.dump(spec, f)
        with open(os.path.join(checkout, "stub.json"), "w") as f:
            json.dump(stub, f)
        sides[side] = checkout
    argv = args if args is not None else [sides["base"], sides["head"]]
    return subprocess.run([sys.executable, GATE] + argv, capture_output=True,
                          text=True, env=env)


def case(name, base_stub, head_stub, want_exit, want_text=(), env=None,
         args=None):
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_gate(tmp, base_stub, head_stub, env, args)
    output = proc.stdout + proc.stderr
    problems = []
    if proc.returncode != want_exit:
        problems.append(f"exit {proc.returncode}, expected {want_exit}")
    problems += [f"output lacks {text!r}" for text in want_text
                 if text not in output]
    if problems:
        failures.append(name)
        print(f"FAIL {name}: {'; '.join(problems)}\n{output}",
              file=sys.stderr)
    else:
        print(f"ok   {name}")


def with_metrics(**metrics):
    return {"metrics": {**GOOD["metrics"], **metrics}}


def main():
    case("pass within the bound", GOOD,
         with_metrics(task_ms=124.0, rate=760.0), 0, ["perf_gate: PASS"])
    case("lower-is-better regression", GOOD, with_metrics(task_ms=126.0), 1,
         ["FAIL: w1 task_ms", "worse by 26.0%", "bound 25%"])
    case("higher-is-better regression", GOOD, with_metrics(rate=740.0), 1,
         ["FAIL: w1 rate", "worse by 26.0%"])
    case("median absorbs one slow run", GOOD,
         with_metrics(task_ms=[100.0, 100.0, 100.0, 900.0, 100.0]), 0,
         ["perf_gate: PASS"])
    case("incorrect head run", GOOD, {**GOOD, "correct": False}, 1,
         ["head run 1 of w1 reported \"correct\": false"])
    case("head run exits nonzero", GOOD, {**GOOD, "exit": 1}, 1,
         ["head run 1 of w1 exited 1"])
    case("higher failure share", GOOD, {**GOOD, "failed": 1}, 1,
         ["FAIL: w1: head failed 1.0000% of operations, base 0.0000%"])
    case("malformed last line", GOOD, {**GOOD, "last_line": "{\"correct\": "},
         2, ["no verdict", "head run 1 of w1"])
    case("failed base run", {**GOOD, "exit": 1}, GOOD, 2,
         ["no verdict", "base run 1 of w1 exited 1"])
    case("bad arguments", GOOD, GOOD, 2, ["usage"], args=["only-one"])
    case("CARGO_TARGET_DIR cleared for both sides", GOOD, GOOD, 0,
         ["perf_gate: PASS"],
         env={**os.environ, "CARGO_TARGET_DIR": "/nonexistent/target"})
    if failures:
        print(f"perf_gate_test: {len(failures)} case(s) failed",
              file=sys.stderr)
        return 1
    print("perf_gate_test: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
