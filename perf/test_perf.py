"""Checks of the benchmark itself, in quick mode.

Run with ``PYTHONPATH=src python -m pytest perf/``.  ``--ops-scale
0.02`` runs 2 % of each workload's digest prefix instead of a timed
window, so a whole run repeats exactly for a seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from run import DETERMINISTIC, WORKLOAD_NAMES, load_benchmark  # noqa: E402

QUICK = ("--ops-scale", "0.02", "--seed", "7")


def run_quick(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), *QUICK, *args],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    results = []
    for side in ("a", "b"):
        completed = run_quick("--out", str(out / side))
        assert completed.returncode == 0, completed.stdout + completed.stderr
        results.append(completed.stdout)
    return results, out


def test_every_end_to_end_metric_is_printed_with_its_unit(quick_runs):
    (stdout, _), _ = quick_runs
    result = last_json(stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    benchmark = load_benchmark()
    assert {w["name"] for w in benchmark["workloads"]} == set(WORKLOAD_NAMES)
    for workload in WORKLOAD_NAMES:
        assert f"== {workload} " in stdout
        for metric in benchmark["end_to_end"]:
            printed = result["metrics"][f"{workload}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert printed["value"] > 0


def test_same_seed_repeats_digest_and_simulated_time(quick_runs):
    _, out = quick_runs
    for workload in WORKLOAD_NAMES:
        first, second = (
            json.loads(next((out / side).glob(f"{workload}-*.json"))
                       .read_text())
            for side in ("a", "b"))
        assert first["outputs_digest"] == second["outputs_digest"]
        for name in DETERMINISTIC:
            assert first["metrics"].get(name) == second["metrics"].get(name)


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    completed = run_quick("--trace", "1", "--trace-dir", str(tmp_path))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = last_json(completed.stdout)
    for workload in WORKLOAD_NAMES:
        for metric in load_benchmark()["per_layer"]:
            printed = result["metrics"][f"{workload}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
        spans = tmp_path / f"{workload}-seed7.spans.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"id", "parent", "name", "layer", "start",
                              "end", "op"}


def test_run_length_is_fixed_by_the_benchmark():
    completed = run_quick("--workload", "kms", "--seconds", "3")
    assert completed.returncode == 2
    assert "run_seconds" in completed.stderr
    assert "correct" not in completed.stdout


def test_failed_ops_count_as_failures_not_as_latency():
    import worker
    from repro.errors import ReproError

    class Flaky:
        clock = types.SimpleNamespace(now=lambda: 0.0)

        def __init__(self):
            self.problems = []
            self.planned = 0

        def problem(self, message):
            self.problems.append(message)

        def plan(self):
            self.planned += 1
            return ("op", self.planned)

        def execute(self, op):
            if op[1] % 2:
                raise ReproError("refused")
            return op

        def check(self, op, result):
            return 1

    workload = Flaky()
    run = worker.Run(workload)
    run.loop(10, None)
    assert (run.attempted, run.failed, len(run.latency)) == (10, 5, 5)
    assert len(workload.problems) == 5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_quick("--workload", "kms", cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


@pytest.mark.parametrize("a, b, better, outcome", [
    ([100, 101, 99, 100, 100], [100, 99, 101, 100, 100], "higher", "within"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", "worse"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "lower", "better"),
    ([60, 140, 100, 70, 130], [100, 95, 105, 98, 102], "lower", "unresolved"),
    ([60, 140, 100, 70, 130], [20, 25, 22, 21, 23], "lower", "better"),
])
def test_compare_verdicts(a, b, better, outcome):
    assert compare.verdict(a, b, better, 0.1)[2] == outcome


def test_compare_flags_new_failures_against_a_zero_base():
    assert compare.verdict([0] * 5, [0.1] * 5, "lower", 0.0)[2] == "worse"
    assert compare.verdict([0] * 5, [0] * 5, "lower", 0.0)[2] == "within"


def test_compare_flags_a_digest_that_differs_within_a_seed():
    records = [{"seed": 1, "outputs_digest": digest, "metrics": {}}
               for digest in ("aa", "aa", "bb")]
    assert compare.deterministic_mismatches("kms", records)
    assert not compare.deterministic_mismatches("kms", records[:2])
