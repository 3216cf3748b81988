#!/usr/bin/env python3
"""Compare two directories of BENCH_E*.json results and flag slowdowns.

Usage::

    python tools/bench_compare.py BASELINE_DIR CURRENT_DIR [--threshold 0.25]

Reads every ``BENCH_E*.json`` present in *both* directories (experiments
that exist on only one side are reported but not compared), matches rows
by experiment + row ``name``, and compares every ``*_seconds`` metric.
A metric that grew by more than ``--threshold`` (default 25%) is printed
as a ``SLOWDOWN`` warning.  Experiments listed in :data:`TOLERANCES`
use their own threshold instead — wall-clock-heavy experiments get more
headroom than the byte-deterministic simulated-time ones.

By default the exit code is 0 when the inputs parse: benchmark timings
on shared CI runners are too noisy to gate a merge on, so this is a
*warn-only* tripwire — the signal is the log line, not a red build.
``--strict`` flips that: any slowdown beyond the threshold exits 1, for
pipelines (nightly runs, dedicated runners) where the timings are
trustworthy.  This mirrors the ``repro lint [--strict]`` convention —
default runs warn, strict runs gate (see docs/ANALYSIS.md).
Malformed inputs (unreadable JSON, missing directories) exit 2 so a
broken pipeline doesn't silently pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Row keys compared between baseline and current results.  Everything
#: the harness emits in seconds is a timing; other keys (counts, ratios)
#: are configuration echoes and not regression signals by themselves.
TIMING_SUFFIX = "_seconds"

#: Per-experiment tolerance overrides, consulted *instead of* the global
#: ``--threshold`` where present.  Wall-clock-dominated experiments (E12
#: times thread-pool fleets, whose wall time depends on the runner's
#: core count and load) need more headroom than the simulated-time
#: experiments, whose numbers are byte-deterministic per seed.
TOLERANCES = {
    "E12": 0.50,
}


def load_reports(directory: Path) -> dict:
    """Map experiment id -> {row name -> row dict} for a results dir."""
    reports = {}
    for path in sorted(directory.glob("BENCH_E*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot read {path}: {exc}") from exc
        rows = {row.get("name", str(i)): row
                for i, row in enumerate(data.get("rows", []))}
        reports[data.get("experiment", path.stem)] = rows
    return reports


def compare(baseline: dict, current: dict, threshold: float,
            tolerances: dict = TOLERANCES) -> list:
    """Return a list of human-readable warning lines.

    ``tolerances`` maps experiment ids to a per-experiment threshold
    that replaces the global one for that experiment's rows.
    """
    warnings = []
    for experiment in sorted(set(baseline) | set(current)):
        if experiment not in baseline:
            print(f"  {experiment}: new experiment (no baseline)")
            continue
        if experiment not in current:
            print(f"  {experiment}: present in baseline only")
            continue
        limit = tolerances.get(experiment, threshold)
        if limit != threshold:
            print(f"  {experiment}: per-experiment tolerance "
                  f"+{limit:.0%}")
        base_rows, cur_rows = baseline[experiment], current[experiment]
        for name in sorted(set(base_rows) & set(cur_rows)):
            base_row, cur_row = base_rows[name], cur_rows[name]
            for key, base_val in base_row.items():
                if not key.endswith(TIMING_SUFFIX):
                    continue
                cur_val = cur_row.get(key)
                if (not isinstance(base_val, (int, float))
                        or not isinstance(cur_val, (int, float))
                        or base_val <= 0):
                    continue
                ratio = cur_val / base_val
                if ratio > 1.0 + limit:
                    warnings.append(
                        f"SLOWDOWN {experiment}/{name}/{key}: "
                        f"{base_val * 1000:.2f}ms -> {cur_val * 1000:.2f}ms "
                        f"({ratio:.2f}x)"
                    )
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional slowdown that triggers a warning "
                             "(default: 0.25 = +25%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on any slowdown beyond the threshold "
                             "instead of warn-only (same strict/warn "
                             "convention as 'repro lint')")
    args = parser.parse_args(argv)

    if not args.baseline.is_dir():
        print(f"no baseline results at {args.baseline}; nothing to compare")
        return 0
    if not args.current.is_dir():
        raise SystemExit(f"error: current results dir missing: "
                         f"{args.current}")

    baseline = load_reports(args.baseline)
    current = load_reports(args.current)
    if not baseline:
        print("baseline directory has no BENCH_E*.json; nothing to compare")
        return 0

    print(f"comparing {len(current)} experiment(s) against baseline "
          f"(threshold: +{args.threshold:.0%})")
    warnings = compare(baseline, current, args.threshold)
    for line in warnings:
        print(f"::warning::{line}")
    if not warnings:
        print("no slowdowns beyond threshold")
    if args.strict and warnings:
        print(f"strict mode: {len(warnings)} regression(s) beyond "
              f"+{args.threshold:.0%} — failing")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
