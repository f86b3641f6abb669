#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest|query|fed_procs --seed N \
        --seconds S --trace 0|1

The first call configures and builds perfbench/CMakeLists.txt (the presto
library from src/, the presto_cell worker and the presto_perf benchmark) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls rebuild
incrementally. Build output goes to stderr. presto_perf's stdout is passed
through, and its last line -- one JSON object with the keys correct,
attempted, failed and metrics -- is checked against BENCHMARK.json before it
is printed as this script's last line. A traced run also writes its spans as
Chrome trace-event JSON into the build directory.

Exits non-zero, printing no result, when the sources, the build or the run
fail, or when the result breaks the format.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest", "query", "fed_procs")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    commands = []
    # Configure once; later builds re-run CMake themselves when its inputs change.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        commands.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", build_dir, "-j", "4", "--target", "presto_perf",
                     "presto_cell"])
    for command in commands:
        if subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    # Flush the build's writes now, not in the background of the timed run.
    os.sync()
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        if metrics[name].get("unit") != unit:
            return f"metric {name} has unit {metrics[name].get('unit')}, expected {unit}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "federation.h")):
        return fail("presto sources (src/) not found next to perfbench/")
    try:
        expected = expected_metrics(args.trace == 1)
    except (OSError, ValueError, KeyError) as error:
        return fail(f"cannot read BENCHMARK.json: {error}")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return fail("build failed")

    command = [os.path.join(build_dir, "presto_perf"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"presto_perf did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail(f"presto_perf exited with {run.returncode}: {lines[-1]}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("presto_perf printed no JSON result")
    problem = check_result(result, expected)
    if problem:
        return fail(problem)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
