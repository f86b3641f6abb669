#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a checkout (builds like run.py, then takes a few minutes):

    python3 perfbench/test_perfbench.py

They check that
  * two runs of one seed agree on every simulated-time metric, on the query
    counts and on the printed fingerprint and latency-histogram digests, on
    every workload;
  * fed_procs, whose cells run in forked presto_cell workers, produces the
    fingerprint and histogram of the same configuration run in-process;
  * a traced run emits every per-layer metric named in BENCHMARK.json, its own
    tracing overhead, a nonzero cache / model / pull share, and a trace file.

Runs here are short (--seconds 2, one set-up), so they finish quickly; the
checks do not depend on the run length.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BUILD_DIR = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
SIM_METRICS = ("query_p50_ms", "query_p99_ms", "j_per_query", "sensor_j_per_day")
SEED = 7


def presto_perf(workload, *extra):
    command = [os.path.join(BUILD_DIR, "presto_perf"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "2", "--setups", "1", *extra]
    out = subprocess.run(command, cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=run.RUN_TIMEOUT_S)
    lines = out.stdout.strip().split("\n")
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {out.returncode}: {lines[-1]}")
    result = json.loads(lines[-1])
    digest = next(line for line in lines if line.startswith("digest "))
    return result, digest


def setUpModule():
    if not run.build(BUILD_DIR):
        raise RuntimeError("benchmark build failed")


class DeterminismTest(unittest.TestCase):
    def check_repeatable(self, workload):
        first, first_digest = presto_perf(workload, "--trace", "0")
        second, second_digest = presto_perf(workload, "--trace", "0")
        self.assertTrue(first["correct"])
        self.assertEqual(first_digest, second_digest)
        self.assertEqual(first["attempted"], second["attempted"])
        self.assertEqual(first["failed"], second["failed"])
        for name in SIM_METRICS:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_ingest_repeats(self):
        self.check_repeatable("ingest")

    def test_query_repeats(self):
        self.check_repeatable("query")

    def test_fed_procs_repeats(self):
        self.check_repeatable("fed_procs")

    def test_fed_procs_matches_in_process(self):
        procs, procs_digest = presto_perf("fed_procs", "--trace", "0")
        local, local_digest = presto_perf("fed_procs", "--trace", "0", "--in-process")
        self.assertEqual(procs_digest, local_digest)
        self.assertEqual(procs["attempted"], local["attempted"])
        for name in SIM_METRICS:
            self.assertEqual(procs["metrics"][name], local["metrics"][name], name)


class TraceTest(unittest.TestCase):
    def test_traced_runs_emit_every_layer_metric(self):
        expected = run.expected_metrics(trace=True)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                trace_file = os.path.join(BUILD_DIR, f"test-trace-{workload}.json")
                result, _ = presto_perf(workload, "--trace", "1", "--trace-out", trace_file)
                self.assertIsNone(run.check_result(result, expected))
                self.assertTrue(result["correct"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                for share in ("proxy.cache_hit_share", "proxy.model_answer_share",
                              "proxy.pull_share"):
                    self.assertGreater(metrics[share], 0.0, share)
                self.assertEqual(metrics["core.fed.orphans"], 0.0)
                self.assertGreater(metrics["trace.untraced_sim_s_per_wall_s"], 0.0)
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                names = {e["name"] for e in events}
                for span in ("setup", "core.build", "core.start", "sim.warmup", "timed",
                             "sim.step", "fold.driver_stats"):
                    self.assertIn(span, names)


if __name__ == "__main__":
    unittest.main()
