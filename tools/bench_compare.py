#!/usr/bin/env python3
"""Non-blocking bench trajectory check: fresh BENCH_*.json vs the checked-in baseline.

Usage: tools/bench_compare.py <baseline.json> <new.json> [--threshold 0.2]
           [--latency-threshold 0.05] [--fail-on-regression]

Rows are matched by their "key". Two families of comparison:

- Throughput metrics (higher is better): a drop beyond --threshold prints a
  WARNING. These depend on host speed, so the default run is advisory.
- Latency histogram percentiles (the "latency_ms" section: mean/p50/p95/p99...,
  lower is better): an increase beyond --latency-threshold prints a WARNING.
  Latencies are *simulated* time — deterministic for a given seed and code, not
  a function of the machine — so the default tolerance is much tighter; any
  drift at all means the model's behaviour changed and the baseline needs a
  deliberate refresh.

Simulation fingerprints (each row's "fingerprints" map) replay bit for bit
across hosts, so they are a hard gate: any fingerprint that differs between
matched rows, or that only one side reports, prints a MISMATCH and makes the
exit code 1 whatever the flags. A deliberate behaviour change regenerates the
baseline in the same change.

Otherwise the exit code is 0 unless --fail-on-regression is passed (local A/B
runs on one machine, or latency-only gating where host speed cannot be the
cause).
"""

import json
import sys

# Higher-is-better rates; absolute counters are not compared.
THROUGHPUT_METRICS = ("events_per_s", "queries_per_s", "queries_per_min")


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return doc, {row["key"]: row for row in doc.get("rows", [])}


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    threshold = 0.2
    latency_threshold = 0.05
    fail_on_regression = "--fail-on-regression" in argv
    for i, arg in enumerate(argv):
        if arg == "--threshold" and i + 1 < len(argv):
            threshold = float(argv[i + 1])
            args = [a for a in args if a != argv[i + 1]]
        if arg == "--latency-threshold" and i + 1 < len(argv):
            latency_threshold = float(argv[i + 1])
            args = [a for a in args if a != argv[i + 1]]
    if len(args) != 2:
        print(__doc__)
        return 2
    baseline_doc, baseline = load_rows(args[0])
    new_doc, new = load_rows(args[1])
    if baseline_doc.get("bench") != new_doc.get("bench"):
        print(f"bench_compare: comparing different benches "
              f"({baseline_doc.get('bench')} vs {new_doc.get('bench')})")

    warnings = 0
    mismatches = 0
    compared = 0
    latency_compared = 0
    fingerprints_compared = 0
    for key, base_row in sorted(baseline.items()):
        new_row = new.get(key)
        if new_row is None:
            print(f"note: row '{key}' in baseline but not in the new run "
                  f"(grid {baseline_doc.get('grid')} vs {new_doc.get('grid')})")
            continue
        base_fps = base_row.get("fingerprints", {})
        new_fps = new_row.get("fingerprints", {})
        for name in sorted(set(base_fps) | set(new_fps)):
            fingerprints_compared += 1
            if base_fps.get(name) != new_fps.get(name):
                print(f"MISMATCH: {key}: fingerprint {name} "
                      f"{base_fps.get(name)} -> {new_fps.get(name)}")
                mismatches += 1
        for metric in THROUGHPUT_METRICS:
            base_value = base_row.get("metrics", {}).get(metric)
            new_value = new_row.get("metrics", {}).get(metric)
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            if not isinstance(new_value, (int, float)):
                continue
            compared += 1
            drop = 1.0 - new_value / base_value
            if drop > threshold:
                print(f"WARNING: {key}: {metric} {base_value:.3g} -> "
                      f"{new_value:.3g} ({100 * drop:.0f}% drop > "
                      f"{100 * threshold:.0f}% threshold)")
                warnings += 1
        # Latency percentiles: lower is better, and the values are simulated
        # time, so a warning here is a behaviour change, not a slow runner.
        base_lat = base_row.get("latency_ms", {})
        new_lat = new_row.get("latency_ms", {})
        for pct in sorted(base_lat):
            base_value = base_lat.get(pct)
            new_value = new_lat.get(pct)
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            if not isinstance(new_value, (int, float)):
                continue
            latency_compared += 1
            rise = new_value / base_value - 1.0
            if rise > latency_threshold:
                print(f"WARNING: {key}: latency {pct} {base_value:.4g}ms -> "
                      f"{new_value:.4g}ms (+{100 * rise:.1f}% > "
                      f"{100 * latency_threshold:.0f}% tolerance)")
                warnings += 1
    print(f"bench_compare: {compared} throughput metric(s), "
          f"{latency_compared} latency percentile(s) and "
          f"{fingerprints_compared} fingerprint(s) compared, "
          f"{warnings} regression warning(s), {mismatches} fingerprint mismatch(es)")
    if mismatches:
        return 1
    return 1 if (warnings and fail_on_regression) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
