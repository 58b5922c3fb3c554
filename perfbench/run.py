#!/usr/bin/env python3
"""Build and run the papisim benchmark.

    python3 perfbench/run.py --workload replay_hit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
re-check the build.  Build output goes to stderr.  The benchmark's own output
goes to stdout, and its last line is the one-line JSON result.  Each run also
writes a record (host stamp, host-reference loop, pass quartiles, checks) and,
when traced, a span dump under <build>/records/.

Exit status is non-zero, with no result printed, when the build or the run
fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("replay_hit", "replay_spill", "pcp_fanin")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(out, target)


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and isinstance(res["metrics"], dict))


def self_test():
    exe = build("perfbench_selftest")
    if exe is None:
        return 1
    return subprocess.run([exe], timeout=RUN_TIMEOUT_S, check=False).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the tests of the benchmark's statistics")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")

    exe = build("perfbench")
    if exe is None:
        return 1
    records = os.path.join(build_dir(), "records")
    os.makedirs(records, exist_ok=True)
    stem = os.path.join(records, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--record", stem + ".json",
           "--spans", stem + "_spans.json"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        print(f"perfbench: run failed (exit {done.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
