#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save FILE]

Run from the repository root. The build goes to $CARGO_TARGET_DIR/servebench
(default .bench_build/servebench). The benchmark's output is passed through;
its last line is the JSON result. --save appends {"workload", "seed",
"trace", "time", "result"} as one line to FILE, for compare.py; "time" is
when the run started, in seconds since the epoch.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds; output goes to stderr so stdout stays the result."""
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", "3"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--save")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "servebench")
    if not build(build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("servebench: run failed with code %d" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": int(args.trace), "time": started,
                                "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
