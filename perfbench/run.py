#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md in this directory).

Builds pjoin_perfbench from the checkout's sources into .bench_build/ and
runs one workload:

    python3 perfbench/run.py --workload probe_sharded --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The last line of stdout is the result object (correct, attempted, failed,
metrics); the line before it records host, build and workload facts. Build
output goes to stderr. Exits non-zero, printing no result, when the build,
the self-tests or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pjoin_perfbench")
# A run measures for --seconds plus at most one repetition, after a few
# seconds of input generation; anything this far beyond that is a hang.
HANG_MARGIN_S = 140


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs,
         "--target", "pjoin_perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError("metric %s keys %s" % (name, sorted(metric)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([BINARY, "--self-test"]).returncode

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-seed%d.tsv" % (args.workload, args.seed))]
    # Its own session, so a hung run is stopped together with the child
    # process it forks for each repetition.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout_s = args.seconds + HANG_MARGIN_S
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %g s" % timeout_s, file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        check_result(lines[-1])
    except ValueError as e:
        print("perfbench: malformed result: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
