#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py --smoke (tiny targets,
same code paths), untraced and traced, and checks the result line: the
correctness gates pass, and every end-to-end (untraced) or per-layer
(traced) metric of BENCHMARK.json is printed with its unit and nothing
else is.  End-to-end values must be positive.  Exits 0 when all pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if done.returncode != 0:
        return None, f"exit code {done.returncode}"
    lines = done.stdout.strip().splitlines()
    return (json.loads(lines[-1]), None) if lines else (None, "no output")


def problems(result, expected, positive):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        yield f"keys {sorted(result)}"
    if result.get("correct") is not True or result.get("failed") != 0:
        yield "correctness gates failed"
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        yield "attempted < 1"
    metrics = result.get("metrics", {})
    for name in sorted(set(metrics) - set(expected)):
        yield f"unexpected metric {name}"
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            yield f"missing metric {name}"
        elif m.get("unit") != unit:
            yield f"{name}: unit {m.get('unit')!r}, expected {unit!r}"
        elif not isinstance(m.get("value"), (int, float)):
            yield f"{name}: value {m.get('value')!r}"
        elif positive and m["value"] <= 0:
            yield f"{name}: value {m['value']} is not positive"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = {
        0: ({m["name"]: m["unit"] for m in bench["end_to_end"]}, True),
        1: ({m["name"]: m["unit"] for m in bench["per_layer"]}, False),
    }
    failures = 0
    for w in bench["workloads"]:
        for trace, (expected, positive) in sets.items():
            result, err = run(w["name"], trace)
            found = [err] if err else list(problems(result, expected, positive))
            status = "ok" if not found else "FAIL: " + "; ".join(found)
            print(f"{w['name']:14} trace={trace} {status}")
            failures += bool(found)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
