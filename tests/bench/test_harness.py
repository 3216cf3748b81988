"""The benchmark harness: tables, measurement, workload generators."""

import json

import pytest

from repro.bench.harness import (
    BENCH_JSON_DIR_ENV,
    BENCH_SMOKE_ENV,
    BenchReport,
    Summary,
    Table,
    measure,
    smoke_mode,
    summarize,
)
from repro.bench.workloads import (
    deployment_with_iml_size,
    fleet_deployment,
    synthetic_files,
)
from repro.net.clock import VirtualClock


def test_table_renders_aligned():
    table = Table("demo", ["name", "value"])
    table.add_row("alpha", 1.23456)
    table.add_row("a-much-longer-name", 42)
    rendered = table.render()
    lines = rendered.splitlines()
    assert lines[0] == "== demo =="
    assert "alpha" in rendered and "1.235" in rendered
    assert len(lines) == 5


def test_table_rejects_wrong_arity():
    table = Table("demo", ["one", "two"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_table_column_access():
    table = Table("demo", ["x", "y"])
    table.add_row(1, 10)
    table.add_row(2, 20)
    assert table.column("y") == [10, 20]


def test_measure_captures_both_clocks():
    clock = VirtualClock()

    def work():
        clock.advance(0.25)
        return "done"

    measurement = measure(clock, work)
    assert measurement.result == "done"
    assert measurement.simulated_seconds == pytest.approx(0.25)
    assert measurement.wall_seconds >= 0


def test_summarize_basic_percentiles():
    summary = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert summary == Summary(count=5, minimum=1.0, median=3.0,
                              p90=5.0, maximum=5.0)


def test_summarize_single_sample():
    summary = summarize([0.7])
    assert summary.minimum == summary.median == summary.p90 \
        == summary.maximum == 0.7


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_row_scaling():
    summary = summarize([0.001, 0.002, 0.003])
    assert summary.row(scale=1e3) == pytest.approx((1.0, 2.0, 3.0, 3.0))


def test_bench_report_noop_without_directory(monkeypatch):
    monkeypatch.delenv(BENCH_JSON_DIR_ENV, raising=False)
    report = BenchReport("EX")
    report.add("probe", simulated=summarize([1.0]))
    assert report.write() is None


def test_bench_report_writes_json(tmp_path, monkeypatch):
    monkeypatch.setenv(BENCH_JSON_DIR_ENV, str(tmp_path / "out"))
    monkeypatch.setenv(BENCH_SMOKE_ENV, "1")
    report = BenchReport("EX")
    report.add("ecdsa_verify", simulated=summarize([0.5, 1.5]),
               wall=summarize([0.25]), speedup=3.4)
    table = Table("demo", ["name", "value"])
    table.add_row("alpha", 1)
    report.add_table(table)

    path = report.write()
    assert path is not None and path.endswith("BENCH_EX.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload == report.payload()
    assert payload["experiment"] == "EX"
    assert payload["smoke"] is True
    row = payload["rows"][0]
    assert row["name"] == "ecdsa_verify"
    assert row["speedup"] == 3.4
    assert row["simulated"]["median"] == 0.5  # nearest-rank lower median
    assert row["wall"]["count"] == 1
    assert payload["tables"] == [
        {"title": "demo", "columns": ["name", "value"],
         "rows": [["alpha", 1]]}
    ]


def test_bench_report_explicit_directory_beats_env(tmp_path, monkeypatch):
    monkeypatch.delenv(BENCH_JSON_DIR_ENV, raising=False)
    report = BenchReport("E0", directory=str(tmp_path))
    report.add("probe", count=3)
    path = report.write()
    assert path == str(tmp_path / "BENCH_E0.json")


def test_smoke_mode_parsing(monkeypatch):
    for value, expected in (("", False), ("0", False), ("1", True),
                            ("yes", True)):
        monkeypatch.setenv(BENCH_SMOKE_ENV, value)
        assert smoke_mode() is expected
    monkeypatch.delenv(BENCH_SMOKE_ENV)
    assert smoke_mode() is False


def test_synthetic_files_distinct_and_sized():
    files = synthetic_files(10, size=64)
    assert len(files) == 10
    assert all(len(content) == 64 for content in files.values())
    assert len(set(files.values())) == 10


def test_deployment_with_iml_size_scales():
    small = deployment_with_iml_size(16, seed=b"harness-small")
    large = deployment_with_iml_size(128, seed=b"harness-large")
    assert len(large.host.ima.iml) > len(small.host.ima.iml)
    # Padded hosts still pass appraisal (golden values cover the padding).
    result = large.vm.attest_host(large.agent_client, large.host.name)
    assert result.trustworthy


def test_fleet_deployment_sizing():
    fleet = fleet_deployment(3, seed=b"harness-fleet")
    assert fleet.vnf_names == ["vnf-1", "vnf-2", "vnf-3"]
