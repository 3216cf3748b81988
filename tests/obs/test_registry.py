"""The metrics registry: families, labels, histograms, reset semantics."""

import math
import tracemalloc

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


# ------------------------------------------------------------------ counters


def test_counter_unlabelled_inc(registry):
    c = registry.counter("requests_total", "requests")
    c.inc()
    c.inc(2.5)
    assert c.value == pytest.approx(3.5)


def test_counter_rejects_negative(registry):
    c = registry.counter("requests_total")
    with pytest.raises(ObservabilityError):
        c.inc(-1)


def test_counter_labels_create_children_lazily(registry):
    c = registry.counter("verdicts_total", labelnames=("status",))
    assert c.children() == []
    c.labels(status="OK").inc()
    c.labels(status="OK").inc()
    c.labels(status="REVOKED").inc()
    assert c.labels(status="OK").value == 2
    assert c.labels(status="REVOKED").value == 1
    assert c.total() == 3
    assert [values for values, _ in c.children()] == [("OK",), ("REVOKED",)]


def test_labels_must_match_declared_names(registry):
    c = registry.counter("verdicts_total", labelnames=("status",))
    with pytest.raises(ObservabilityError):
        c.labels(stauts="OK")
    with pytest.raises(ObservabilityError):
        c.labels()
    with pytest.raises(ObservabilityError):
        c.labels(status="OK", extra="x")


def test_unlabelled_access_on_labelled_family_rejected(registry):
    c = registry.counter("verdicts_total", labelnames=("status",))
    with pytest.raises(ObservabilityError):
        c.inc()


def test_le_label_reserved(registry):
    with pytest.raises(ObservabilityError):
        registry.histogram("h_seconds", labelnames=("le",))


def test_invalid_metric_name_rejected(registry):
    with pytest.raises(ObservabilityError):
        registry.counter("bad-name")


# -------------------------------------------------------------------- gauges


def test_gauge_set_inc_dec(registry):
    g = registry.gauge("enrolled")
    g.set(4)
    g.inc()
    g.dec(2)
    assert g.value == 3


# ---------------------------------------------------------------- histograms


def test_histogram_buckets_cumulative(registry):
    h = registry.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    child = h.labels()
    assert child.cumulative_buckets() == [
        (0.1, 1), (1.0, 3), (10.0, 4), (math.inf, 5),
    ]
    assert child.count == 5
    assert child.sum == pytest.approx(56.05)


def test_histogram_memory_does_not_grow_with_observations(registry):
    child = registry.histogram("lat_seconds").labels()
    child.observe(0.5)  # the child and its bucket counts exist
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(100_000):
            child.observe(index * 1e-5)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert child.count == 100_001
    assert retained < 4096


def test_histogram_default_buckets(registry):
    h = registry.histogram("lat_seconds")
    assert h.buckets == DEFAULT_BUCKETS


def test_histogram_bucket_validation(registry):
    with pytest.raises(ObservabilityError):
        registry.histogram("a_seconds", buckets=())
    with pytest.raises(ObservabilityError):
        registry.histogram("b_seconds", buckets=(1.0, 1.0))
    with pytest.raises(ObservabilityError):
        registry.histogram("c_seconds", buckets=(1.0, math.inf))


def test_histogram_total_count_across_labels(registry):
    h = registry.histogram("lat_seconds", labelnames=("step",))
    h.labels(step="a").observe(1.0)
    h.labels(step="b").observe(2.0)
    h.labels(step="b").observe(3.0)
    assert h.total_count() == 3


# ------------------------------------------------------------------ registry


def test_registry_deduplicates_by_name(registry):
    a = registry.counter("x_total", labelnames=("k",))
    b = registry.counter("x_total", labelnames=("k",))
    assert a is b


def test_registry_type_conflict(registry):
    registry.counter("x_total")
    with pytest.raises(ObservabilityError):
        registry.gauge("x_total")


def test_registry_labelname_conflict(registry):
    registry.counter("x_total", labelnames=("a",))
    with pytest.raises(ObservabilityError):
        registry.counter("x_total", labelnames=("b",))


def test_registry_get_and_contains(registry):
    registry.gauge("g")
    assert "g" in registry
    assert isinstance(registry.get("g"), type(registry.gauge("g")))
    with pytest.raises(ObservabilityError):
        registry.get("missing")


def test_registry_collect_sorted(registry):
    registry.counter("zzz_total")
    registry.gauge("aaa")
    assert [f.name for f in registry.collect()] == ["aaa", "zzz_total"]


def test_registry_reset_keeps_registrations(registry):
    c = registry.counter("x_total", labelnames=("k",))
    c.labels(k="v").inc(5)
    registry.reset()
    assert "x_total" in registry
    assert c.total() == 0


def test_registry_unregister(registry):
    registry.counter("x_total")
    registry.unregister("x_total")
    assert "x_total" not in registry


def test_families_are_typed(registry):
    assert isinstance(registry.counter("c_total"), Counter)
    assert isinstance(registry.histogram("h_seconds"), Histogram)
