#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (the library stack from src/ plus the `perfbench` driver) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. The driver's last stdout line is one JSON object
with "correct", "attempted", "failed" and "metrics"; this script checks it
against BENCHMARK.json and prints it as its own last line. The exit status
is non-zero when the build, a correctness check or that validation fails.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Leaves the run itself well inside the 180-second limit.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return os.path.exists(BINARY)


def expected_metrics(spec, trace):
    """name -> unit of the metrics a result must carry."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, expected):
    """Returns a list of problems with one parsed result object."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed is %r" % result["failed"])
    metrics = result["metrics"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append("missing metric " + name)
    for name in sorted(set(metrics) - set(expected)):
        problems.append("unexpected metric " + name)
    for name in sorted(set(expected) & set(metrics)):
        entry = metrics[name]
        if entry.get("unit") != expected[name]:
            problems.append("%s has unit %r, expected %r"
                            % (name, entry.get("unit"), expected[name]))
        if not isinstance(entry.get("value"), (int, float)):
            problems.append("%s has value %r" % (name, entry.get("value")))
    return problems


def run_driver(args, extra=(), timeout=RUN_TIMEOUT_S):
    """Runs the driver; returns (exit status, parsed last line or None)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    command += list(extra)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s and was stopped" % timeout)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode or 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last driver line is not JSON: " + lines[-1][:200])
        return proc.returncode or 1, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    start = time.monotonic()
    if not build():
        return 1
    log("build ready after %.1f s" % (time.monotonic() - start))

    extra = []
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        extra = ["--spans_out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    status, result = run_driver(args, extra)
    if result is None:
        log("no result")
        return status or 1
    problems = validate(result, expected_metrics(spec, args.trace))
    for problem in problems:
        log("invalid result: " + problem)
    print(json.dumps(result))
    if status != 0 or problems or result.get("correct") is not True:
        return status or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
