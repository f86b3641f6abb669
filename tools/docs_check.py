#!/usr/bin/env python3
"""Repo documentation checks (the CI `docs-check` job).

1. Knob-table coverage: every field of the config structs listed in STRUCTS must be
   mentioned (as `field`) in README.md, and every row of a struct's knob table
   (the README section headed "### `Struct`") must name a field the struct has —
   the knob reference table can neither fall behind a struct change nor keep rows
   for deleted fields.
2. Markdown links: intra-repo links in every tracked *.md file must resolve.
   External schemes, pure anchors, and paths that escape the repo (e.g. the GitHub
   badge's ../../actions/... trick) are skipped — they cannot be validated locally.
3. Bench catalog: docs/BENCHMARKS.md must mention every bench binary built from
   bench/*.cc (as `bench_<name>`) — a new bench cannot land undocumented.
4. Bench JSON schema: the schema keys documented in docs/BENCHMARKS.md (the
   backticked first column of its schema table) must equal kBenchReportSchemaKeys
   in bench/bench_report.h — the schema doc and the emitter cannot drift apart.
5. Baseline validation: the checked-in repo-root BENCH_*.json trajectory baselines
   must actually conform to schema v1 — version match, required top-level keys,
   rows with unique keys, section names drawn from the declared key set, and
   fingerprints as "0x%016x" hex strings.
6. Codec coverage: every field of the structs in CODEC_STRUCTS (the configs the
   kBootstrap and kAttachDriver frames carry, the radio messages and the flash page
   header) must appear in that struct's field list — the `CkptFields` template
   that drives both codec directions, `f(v.x)` or adapter-wrapped
   `f(Adapter(v.x))` — or in CODEC_EXCLUDED. A field added to a config without a
   list entry would silently not reach a worker process; one added to a message
   would silently not go on the air.

Exits non-zero with one line per problem.
"""

import glob
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (header path, struct name) pairs whose fields the README knob tables must cover.
STRUCTS = [
    ("src/core/deployment.h", "DeploymentConfig"),
    ("src/core/federation.h", "FederationConfig"),
    ("src/net/cell_link.h", "CellLinkParams"),
]

MEMBER_RE = re.compile(
    r"^\s*(?:[A-Za-z_][\w:]*(?:<[^;=]*>)?[\s&*]+)+([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*"
    r"(?:=[^;]*)?;\s*(?://.*)?$"
)
LINK_RE = re.compile(r"\[[^\]^]*\]\(([^)\s]+)\)")


def struct_fields(path, name):
    """Field names of `struct name { ... };` in `path` (top-level members only)."""
    with open(os.path.join(REPO, path), encoding="utf-8") as f:
        text = f.read()
    match = re.search(r"struct\s+%s\s*\{" % re.escape(name), text)
    if not match:
        raise SystemExit(f"docs_check: struct {name} not found in {path}")
    depth = 1
    body = []
    for line in text[match.end():].splitlines():
        stripped = line.split("//", 1)[0]
        if depth == 1:
            body.append(line)
        depth += stripped.count("{") - stripped.count("}")
        if depth <= 0:
            break
    fields = []
    for line in body:
        m = MEMBER_RE.match(line)
        if m and not line.lstrip().startswith("//"):
            fields.append(m.group(1))
    if not fields:
        raise SystemExit(f"docs_check: no fields parsed for {name} in {path}")
    return fields


KNOB_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|", re.MULTILINE)


def knob_table_rows(readme, name):
    """Knob names in the README section headed "### `name`" (up to the next heading)."""
    match = re.search(r"^###\s+`%s`[^\n]*$" % re.escape(name), readme, re.MULTILINE)
    if not match:
        return None
    rest = readme[match.end():]
    end = re.search(r"^#", rest, re.MULTILINE)
    return KNOB_ROW_RE.findall(rest[:end.start()] if end else rest)


def check_knob_tables(problems):
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    for path, name in STRUCTS:
        fields = struct_fields(path, name)
        for field in fields:
            if f"`{field}`" not in readme:
                problems.append(
                    f"README.md: {name}::{field} ({path}) missing from the knob table"
                )
        rows = knob_table_rows(readme, name)
        if rows is None:
            problems.append(f"README.md: no knob table section for {name}")
            continue
        for row in rows:
            if row not in fields:
                problems.append(
                    f"README.md: knob table row `{row}` names no field of {name} ({path})"
                )


# Structs whose field lists carry a config across the process seam: FederationConfig
# and everything its bootstrap nests, and the attach-driver params.
CODEC_STRUCTS = [
    ("src/core/federation.h", "FederationConfig"),
    ("src/core/deployment.h", "DeploymentConfig"),
    ("src/wavelet/codec.h", "CodecParams"),
    ("src/flash/flash_device.h", "FlashParams"),
    ("src/flash/archive_store.h", "ArchiveParams"),
    ("src/models/model.h", "ModelConfig"),
    ("src/net/network.h", "NodeRadioConfig"),
    ("src/net/network.h", "NetworkParams"),
    ("src/net/radio.h", "RadioParams"),
    ("src/proxy/prediction_engine.h", "PredictionEngineParams"),
    ("src/proxy/query_matcher.h", "MatcherParams"),
    ("src/workload/temperature.h", "TemperatureParams"),
    ("src/net/cell_link.h", "CellLinkParams"),
    ("src/workload/query_driver.h", "QueryDriverParams"),
    ("src/workload/queries.h", "QueryWorkloadParams"),
    ("src/sensor/protocol.h", "DataPushMsg"),
    ("src/sensor/protocol.h", "ModelUpdateMsg"),
    ("src/sensor/protocol.h", "ConfigUpdateMsg"),
    ("src/sensor/protocol.h", "ArchiveQueryMsg"),
    ("src/sensor/protocol.h", "ArchiveReplyMsg"),
    ("src/sensor/protocol.h", "ReplicaUpdateMsg"),
    ("src/sensor/protocol.h", "ReplicaModelMsg"),
    ("src/flash/page_codec.h", "PageHeader"),
    ("src/net/fed_wire.h", "FedHello"),
]

# Fields deliberately left out of their struct's field list.
CODEC_EXCLUDED = {
    # The orchestrator's own parallelism, transport and frame deadline: the
    # transport that delivers the bootstrap is not part of the simulated world,
    # so workers build their cells from identical bytes in every mode.
    ("FederationConfig", "cell_threads"),
    ("FederationConfig", "cell_processes"),
    ("FederationConfig", "cell_endpoints"),
    ("FederationConfig", "frame_deadline"),
}

CODEC_LIST_RE = r"CkptSelf<S,\s*%s>\s*=\s*0>\s*(?:friend\s+)?void\s+CkptFields\(S&\s*(\w+),[^)]*\)\s*\{"


def codec_list_fields(name):
    """Fields named by `name`'s CkptFields list anywhere under src/, or None.

    The body runs to the list's matching brace, so gated fields
    (`if (v.mask & kBit) { f(v.x); }`) count; a field is `f(v.x)` or
    `f(Adapter(v.x))`.
    """
    for path in sorted(glob.glob(os.path.join(REPO, "src", "**", "*.h"), recursive=True)):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        match = re.search(CODEC_LIST_RE % re.escape(name), text)
        if match:
            depth = 1
            end = match.end()
            while depth > 0 and end < len(text):
                depth += {"{": 1, "}": -1}.get(text[end], 0)
                end += 1
            body = text[match.end():end]
            var = re.escape(match.group(1))
            return re.findall(r"\bf\((?:\w+\()?%s\.(\w+)\)" % var, body)
    return None


def check_codec_coverage(problems):
    for path, name in CODEC_STRUCTS:
        listed = codec_list_fields(name)
        if listed is None:
            problems.append(f"src/: no CkptFields list for {name} ({path})")
            continue
        for field in struct_fields(path, name):
            if field not in listed and (name, field) not in CODEC_EXCLUDED:
                problems.append(
                    f"{path}: {name}::{field} missing from its CkptFields list "
                    "(add it, or exclude it in tools/docs_check.py CODEC_EXCLUDED)"
                )


def markdown_files():
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [
            d for d in dirs
            if not d.startswith(".") and not d.startswith("build")
        ]
        for f in files:
            if f.endswith(".md"):
                yield os.path.join(root, f)


def check_markdown_links(problems):
    for md in markdown_files():
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if re.match(r"[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:  # pure anchor
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(md), target_path))
            if not resolved.startswith(REPO + os.sep):
                continue  # escapes the repo (badge URLs): not validatable locally
            if not os.path.exists(resolved):
                problems.append(
                    f"{os.path.relpath(md, REPO)}: broken link -> {target}"
                )


# Shared bench helpers, not binaries: excluded from the catalog requirement.
BENCH_HELPERS = {"bench_report", "micro_main"}

# Rows of the BENCHMARKS.md schema table look like "| `key` | top level | ...".
# Parsed only inside the schema section (other catalog tables also backtick their
# first column).
SCHEMA_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|", re.MULTILINE)
SCHEMA_HEADING_RE = re.compile(r"^##[^\n]*schema[^\n]*$", re.IGNORECASE | re.MULTILINE)


def bench_targets():
    bench_dir = os.path.join(REPO, "bench")
    return sorted(
        os.path.splitext(f)[0]
        for f in os.listdir(bench_dir)
        if f.endswith(".cc") and os.path.splitext(f)[0] not in BENCH_HELPERS
    )


def schema_keys():
    with open(os.path.join(REPO, "bench", "bench_report.h"), encoding="utf-8") as f:
        text = f.read()
    match = re.search(r"kBenchReportSchemaKeys\[\]\s*=\s*\{(.*?)\};", text, re.DOTALL)
    if not match:
        raise SystemExit("docs_check: kBenchReportSchemaKeys not found in "
                         "bench/bench_report.h")
    keys = re.findall(r'"([^"]+)"', match.group(1))
    if not keys:
        raise SystemExit("docs_check: kBenchReportSchemaKeys parsed empty")
    return keys


def check_benchmarks_doc(problems):
    path = os.path.join(REPO, "docs", "BENCHMARKS.md")
    if not os.path.exists(path):
        problems.append("docs/BENCHMARKS.md: missing (bench catalog required)")
        return
    with open(path, encoding="utf-8") as f:
        text = f.read()
    for target in bench_targets():
        if f"`bench_{target}`" not in text:
            problems.append(
                f"docs/BENCHMARKS.md: bench_{target} (bench/{target}.cc) missing "
                "from the catalog"
            )
    heading = SCHEMA_HEADING_RE.search(text)
    if not heading:
        problems.append(
            "docs/BENCHMARKS.md: no '## ... schema ...' section (schema table required)"
        )
        return
    section = text[heading.end():]
    next_heading = re.search(r"^## ", section, re.MULTILINE)
    if next_heading:
        section = section[:next_heading.start()]
    documented = set(SCHEMA_ROW_RE.findall(section))
    declared = set(schema_keys())
    for key in sorted(declared - documented):
        problems.append(
            f"docs/BENCHMARKS.md: schema key `{key}` (bench/bench_report.h) not "
            "documented in the schema table"
        )
    for key in sorted(documented - declared):
        problems.append(
            f"docs/BENCHMARKS.md: schema table documents `{key}` which is not in "
            "bench/bench_report.h kBenchReportSchemaKeys"
        )


def schema_version():
    with open(os.path.join(REPO, "bench", "bench_report.h"), encoding="utf-8") as f:
        text = f.read()
    match = re.search(r"kBenchReportSchemaVersion\s*=\s*(\d+)", text)
    if not match:
        raise SystemExit("docs_check: kBenchReportSchemaVersion not found in "
                         "bench/bench_report.h")
    return int(match.group(1))


# Of the declared schema keys, these are top-level document keys; the rest are
# per-row section names. "key" appears in both spots ("key" is per-row only).
BASELINE_REQUIRED_TOP = ["schema_version", "bench", "grid", "rows"]
BASELINE_OPTIONAL_TOP = ["config"]
FINGERPRINT_RE = re.compile(r"^0x[0-9a-f]{16}$")


def check_bench_baselines(problems):
    """The checked-in BENCH_*.json baselines must conform to the declared schema."""
    declared = set(schema_keys())
    row_sections = declared - set(BASELINE_REQUIRED_TOP) - {"key"}
    version = schema_version()
    for path in sorted(glob.glob(os.path.join(REPO, "BENCH_*.json"))):
        rel = os.path.relpath(path, REPO)
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            problems.append(f"{rel}: unreadable baseline ({err})")
            continue
        for key in BASELINE_REQUIRED_TOP:
            if key not in report:
                problems.append(f"{rel}: missing required top-level key `{key}`")
        if report.get("schema_version") != version:
            problems.append(
                f"{rel}: schema_version {report.get('schema_version')!r} != "
                f"bench_report.h kBenchReportSchemaVersion ({version})"
            )
        for key in report:
            if key not in BASELINE_REQUIRED_TOP + BASELINE_OPTIONAL_TOP:
                problems.append(f"{rel}: undeclared top-level key `{key}`")
        rows = report.get("rows")
        if not isinstance(rows, list) or not rows:
            problems.append(f"{rel}: `rows` must be a non-empty array")
            continue
        seen = set()
        for i, row in enumerate(rows):
            where = f"{rel} rows[{i}]"
            if not isinstance(row, dict) or not isinstance(row.get("key"), str):
                problems.append(f"{where}: row must be an object with a string `key`")
                continue
            if row["key"] in seen:
                problems.append(f"{where}: duplicate row key `{row['key']}`")
            seen.add(row["key"])
            for section in row:
                if section != "key" and section not in row_sections:
                    problems.append(f"{where}: undeclared row section `{section}`")
            for name, value in row.get("fingerprints", {}).items():
                if not isinstance(value, str) or not FINGERPRINT_RE.match(value):
                    problems.append(
                        f"{where}: fingerprint `{name}` must be a 0x%016x hex "
                        f"string, got {value!r}"
                    )


def main():
    problems = []
    check_knob_tables(problems)
    check_markdown_links(problems)
    check_benchmarks_doc(problems)
    check_bench_baselines(problems)
    check_codec_coverage(problems)
    for p in problems:
        print(p)
    if problems:
        print(f"docs_check: {len(problems)} problem(s)")
        return 1
    print("docs_check: knob tables complete, markdown links resolve, "
          "baselines validate, codec field lists complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
