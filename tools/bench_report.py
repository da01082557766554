#!/usr/bin/env python
"""Merge pytest-benchmark JSON artifacts into one trajectory table.

The CI ``bench-smoke`` job records each benchmark family as a
``BENCH_*.json`` artifact (pytest-benchmark's ``--benchmark-json``
format).  This tool folds any number of those files -- from one run or
from several runs being compared -- into a single markdown table sorted
by family and test, so the performance trajectory across PRs can be read
(and diffed) in one place.  Scaling rows (``BENCH_scaling.json``) carry
a log-log ``slope`` and its gate in ``extra_info``; the table prints
them in the slope column.

Usage::

    python tools/bench_report.py [BENCH_a.json BENCH_b.json ...]
    python tools/bench_report.py --dir . --out BENCH_report.md

With no files given, every ``BENCH_*.json`` in ``--dir`` (default: the
current directory) is merged.  Files that are missing, empty, or not
pytest-benchmark JSON are reported and skipped -- a partial record is
better than none, which is exactly the situation after a failed gate.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional


def _format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return "{:.1f}us".format(seconds * 1e6)
    if seconds < 1.0:
        return "{:.2f}ms".format(seconds * 1e3)
    return "{:.3f}s".format(seconds)


def load_records(path: str) -> Optional[List[Dict]]:
    """The benchmark rows of one artifact, or None if unreadable."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print("skipping {}: {}".format(path, exc), file=sys.stderr)
        return None
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list):
        print(
            "skipping {}: no 'benchmarks' array".format(path),
            file=sys.stderr,
        )
        return None
    family = os.path.splitext(os.path.basename(path))[0]
    records = []
    for bench in benchmarks:
        stats = bench.get("stats", {})
        extra = bench.get("extra_info") or {}
        records.append(
            {
                "family": family,
                "test": bench.get("name", "?"),
                "min": stats.get("min"),
                "mean": stats.get("mean"),
                "rounds": stats.get("rounds"),
                "slope": extra.get("slope"),
                "gate": extra.get("gate"),
                "notes": extra.get("notes", ""),
            }
        )
    return records


def _format_slope(record: Dict) -> str:
    """A scaling row's log-log slope, with its gate when it has one."""
    slope = record.get("slope")
    if slope is None:
        return "-"
    gate = record.get("gate")
    if gate is None:
        return "{:.2f}".format(slope)
    return "{:.2f} (<= {})".format(slope, gate)


def render_table(records: List[Dict]) -> str:
    """The merged trajectory as a markdown table."""
    lines = [
        "| family | benchmark | min | mean | rounds | slope | notes |",
        "| --- | --- | ---: | ---: | ---: | ---: | --- |",
    ]
    for record in sorted(
        records, key=lambda r: (r["family"], str(r["test"]))
    ):
        lines.append(
            "| {} | {} | {} | {} | {} | {} | {} |".format(
                record["family"],
                record["test"],
                _format_seconds(record["min"])
                if record["min"] is not None
                else "-",
                _format_seconds(record["mean"])
                if record["mean"] is not None
                else "-",
                record["rounds"] if record["rounds"] is not None else "-",
                _format_slope(record),
                record.get("notes") or "",
            )
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="merge BENCH_*.json artifacts into one table"
    )
    parser.add_argument(
        "files", nargs="*", help="artifact files (default: --dir glob)"
    )
    parser.add_argument(
        "--dir", default=".", help="directory to glob BENCH_*.json from"
    )
    parser.add_argument(
        "--out", default=None, help="write markdown here (default: stdout)"
    )
    args = parser.parse_args(argv)

    paths = args.files or sorted(
        glob.glob(os.path.join(args.dir, "BENCH_*.json"))
    )
    records: List[Dict] = []
    for path in paths:
        loaded = load_records(path)
        if loaded:
            records.extend(loaded)
    if not records:
        print("no benchmark records found", file=sys.stderr)
        return 1
    table = "# Benchmark trajectory\n\n{}\n".format(render_table(records))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(table)
        print("wrote {} rows to {}".format(len(records), args.out))
    else:
        print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
