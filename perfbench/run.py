#!/usr/bin/env python3
"""Build and run the learning-pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/cqbench.exe with dune, then runs it in the checkout.  The
last line of standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics".  --trace 0 gives the end-to-end metrics
of BENCHMARK.json, --trace 1 its per-layer metrics.  --smoke runs the same
code paths on tiny targets (see selftest.py).
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "cqbench.exe")
WORKLOADS = ["hw-l1", "hw-l1-noisy", "sim-lru6", "daemon-plru8"]
# One run must end within 180 s; the build is not part of it.
RUN_TIMEOUT_S = 175
# Scratch space inside the checkout (the daemon's state lives here too).
STATE = os.path.join(ROOT, ".perfbench-state")


def environment():
    # Keep the build's temporary files and the shared dune cache, which
    # live outside the checkout by default, inside it or off.
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def build(env):
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/cqbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"cannot run dune: {e}", file=sys.stderr)
        return 1
    return done.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    env = environment()
    if build(env) != 0:
        print("build failed", file=sys.stderr)
        return 1
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
