#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see e2ebench/README.md).

Run from the repository root:

  python3 e2ebench/run.py --workload long_narrow --seed 1 --seconds 10 --trace 0

The first call configures and builds e2ebench/ (the repository's libraries
from src/, optimized) into .bench_build/; later calls rebuild only what
changed. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. With --trace 1 the traced pass's Chrome trace is
validated with the repository's tools/trace_check, and a failed check marks
the result incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_SECONDS = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    source = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.path.join(".bench_build", "e2ebench"))
    out_dir = os.path.abspath(os.path.join(".bench_build", "out"))
    env = dict(os.environ)
    env["TMPDIR"] = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)

    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build, "-j", jobs,
              "--target", "e2ebench", "trace_check"]]
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", source, "-B", build,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print("e2ebench: build failed", file=sys.stderr)
            return 1

    command = [os.path.join(build, "e2ebench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--out-dir", out_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                             text=True, timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        print("e2ebench: run failed", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])

    if args.trace == "1":
        trace = os.path.join(
            out_dir, "%s-seed%s.trace.json" % (args.workload, args.seed))
        check = subprocess.run([os.path.join(build, "trace_check"), trace],
                               stdout=sys.stderr, env=env)
        result["attempted"] += 1
        if check.returncode != 0:
            result["correct"] = False
            result["failed"] += 1
        lines[-1] = json.dumps(result)

    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
