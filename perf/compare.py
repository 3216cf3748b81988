"""Compare two sets of benchmark runs.

Usage::

    python3 perf/compare.py A_DIR B_DIR

Each directory holds the per-run JSON records ``run.py --out DIR``
writes; A is the base (the parent commit), B the candidate.  Alternate
the runs between the sets (A, B, A, B, ...) so that the i-th runs pair
up in time.  For each workload and end-to-end metric this prints both
sides' median and quartiles, the change of the medians, B's win share
over the pairs, and a verdict against the metric's bound from
``BENCHMARK.json`` (``run.EXTRA_METRICS`` for the metrics printed beside
them):

* ``worse``     -- B's median is worse than A's by more than the bound;
* ``better``    -- better by more than the bound, and B wins >= 90 % of
  the pairs;
* ``within``    -- neither;
* ``unresolved`` -- A's own spread (interquartile range over median) is
  wider than the bound, unless every B run beats, or loses to, every A
  run.

A metric whose base median is 0 (``fail_frac``) is compared by absolute
difference, so any rise from 0 is ``worse`` under a bound of 0.
Deterministic outputs (``outputs_digest`` and the simulated-time
metrics) must be identical across every run of one seed.  The exit code
is 1 when any verdict is ``worse`` or ``unresolved``, a deterministic
output differs, or a run failed its output checks, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import DETERMINISTIC, load_benchmark, metric_table

WIN_SHARE = 0.9


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load(directory: str) -> dict:
    """workload -> run records in run order (untraced runs only)."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if not record["trace"]:
            runs[record["workload"]].append(record)
    return runs


def verdict(a, b, better: str, bound: float):
    """``(change, win share, verdict)`` of candidate ``b`` against ``a``."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    # A median of 0 (fail_frac) has no scale: compare absolute values,
    # so 0 -> 0.1 is a change of +0.1.
    scale = abs(a_med) if a_med else 1.0
    change = (b_med - a_med) / scale
    gain = sign * change
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = wins / len(pairs) if pairs else 0.0
    spread = (a_q3 - a_q1) / scale
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    all_worse = max(sign * y for y in b) < min(sign * x for x in a)
    if spread > bound and not (all_better or all_worse):
        return change, share, "unresolved"
    if -gain > bound:
        return change, share, "worse"
    if gain > bound and share >= WIN_SHARE:
        return change, share, "better"
    return change, share, "within"


def deterministic_mismatches(workload: str, records: list) -> list:
    """Deterministic outputs that differ between runs of one seed."""
    problems = []
    by_seed = defaultdict(list)
    for record in records:
        by_seed[record["seed"]].append(record)
    for seed, group in sorted(by_seed.items()):
        for key in ("outputs_digest",) + DETERMINISTIC:
            values = {r["outputs_digest"] if key == "outputs_digest"
                      else r["metrics"].get(key) for r in group}
            if len(values) > 1:
                problems.append(f"{workload} seed {seed}: {key} differs "
                                f"across {len(group)} runs")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = load(argv[0]), load(argv[1])
    table = metric_table(load_benchmark())
    failing = []
    print(f"{'workload':13s} {'metric':15s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s} {'wins':>5s}  verdict")
    for workload in sorted(set(base) | set(candidate)):
        a_runs, b_runs = base.get(workload, []), candidate.get(workload, [])
        if not a_runs or not b_runs:
            failing.append(f"{workload}: runs missing on one side")
            continue
        for name, (unit, better, bound) in table.items():
            a = [r["metrics"][name] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name] for r in b_runs if name in r["metrics"]]
            if not a or not b:
                continue
            change, share, outcome = verdict(a, b, better, bound)
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            print(f"{workload:13s} {name:15s} "
                  f"{a_med:12.5g} [{a_q1:.5g}, {a_q3:.5g}] "
                  f"{b_med:12.5g} [{b_q1:.5g}, {b_q3:.5g}] "
                  f"{change:+8.2%} {share:5.0%}  {outcome} ({unit}, "
                  f"bound {bound:.0%})")
            if outcome in ("worse", "unresolved"):
                failing.append(f"{workload} {name}: {outcome}")
        failing += deterministic_mismatches(workload, a_runs + b_runs)
        failing += [f"{workload} seed {r['seed']}: output checks failed"
                    for r in a_runs + b_runs if not r["correct"]]
    for line in failing:
        print(f"FAIL {line}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
