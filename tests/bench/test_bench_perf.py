"""``BENCH_PERF.json``: the committed wall trajectory of perf changes.

Each entry holds, for every workload in ``BENCHMARK.json``, every
end-to-end metric's median and quartiles at the parent commit and at the
change, so an entry that skips a workload or a metric, or a benchmark
that grows one, fails here.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load(name: str) -> dict:
    with open(ROOT / name, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_entry_covers_the_benchmark():
    benchmark = _load("BENCHMARK.json")
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    entries = _load("BENCH_PERF.json")["entries"]
    assert entries
    for entry in entries:
        assert set(entry["end_to_end"]) == workloads, entry["change"]
        for workload, rows in entry["end_to_end"].items():
            assert metrics <= set(rows), (entry["change"], workload)
            for name in metrics:
                for side in ("parent", "change"):
                    spread = rows[name][side]
                    assert (spread["q1"] <= spread["median"]
                            <= spread["q3"]), (workload, name, side)
        for key in ("nproc", "python", "cpu_factor"):
            assert key in entry["machine"], (entry["change"], key)
