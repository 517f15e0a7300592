#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Builds the driver like run.py, then runs every workload of BENCHMARK.json at
tiny sizes, untraced and traced. Each run must pass the correctness gate
(all four oracle checks and the phase balance), exit 0, and print every
metric BENCHMARK.json names for its mode, each with its unit. Takes about a
minute after the build. Exits non-zero on the first problem.
"""

import argparse
import os
import sys

import run


def main():
    spec = run.load_spec()
    if not run.build():
        return 1
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                      trace=trace)
            extra = ["--tiny"]
            if trace:
                extra += ["--spans_out",
                          os.path.join(run.BUILD_DIR, "smoke-spans.jsonl")]
            status, result = run.run_driver(args, extra)
            problems = [] if result is not None else ["no result"]
            if result is not None:
                problems += run.validate(result,
                                         run.expected_metrics(spec, trace))
                if result.get("correct") is not True:
                    problems.append("correctness gate failed")
            if status != 0:
                problems.append("exit status %d" % status)
            verdict = "ok" if not problems else "; ".join(problems)
            print("smoke %-16s trace=%d: %s" % (workload, trace, verdict),
                  flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
