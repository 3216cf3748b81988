"""The null telemetry object: what every component holds while telemetry
is off.

It is the real :class:`Telemetry` built over a registry and a tracer that
keep nothing, so the contract below is checked against a real instance
rather than a hand-kept list: a metric added to ``Telemetry.__init__``
is covered here, and on the null object, without further edits.
"""

import time

import pytest

from repro.net.clock import VirtualClock
from repro.obs import NULL_TELEMETRY, MetricsRegistry, Telemetry
from repro.obs.registry import MetricFamily


@pytest.fixture
def real():
    return Telemetry(registry=MetricsRegistry(), now=VirtualClock().now)


def _families(telemetry):
    return {name: value for name, value in vars(telemetry).items()
            if isinstance(value, MetricFamily)}


def test_has_every_attribute_of_a_real_telemetry(real):
    assert isinstance(NULL_TELEMETRY, Telemetry)
    assert set(vars(real)) == set(vars(NULL_TELEMETRY))
    assert set(dir(real)) <= set(dir(NULL_TELEMETRY))
    assert len(_families(real)) >= 30


def test_every_metric_accepts_any_labels_and_update(real):
    for name, family in _families(real).items():
        null = getattr(NULL_TELEMETRY, name)
        for metric in (null,
                       null.labels(**{label: "x"
                                      for label in family.labelnames}),
                       null.labels(anything="at-all", more=3)):
            metric.inc()
            metric.inc(2.5)
            metric.dec()
            metric.set(7)
            metric.observe(0.25)


def test_spans_and_timers_are_context_managers():
    with NULL_TELEMETRY.span("step", vnf="vnf-1") as span:
        span.set_attribute("status", "OK")
        span.add_event("retry", timestamp=1.0, attempt=2)
        with NULL_TELEMETRY.time(
                NULL_TELEMETRY.workflow_step_seconds.labels(step="s")):
            pass
    with NULL_TELEMETRY.tracer.span("raw") as raw:
        raw.set_attribute("k", "v")


def test_span_propagates_exceptions():
    with pytest.raises(ValueError):
        with NULL_TELEMETRY.span("failing"):
            raise ValueError("boom")


def test_records_nothing_and_reads_no_clock(monkeypatch):
    def no_clock():
        raise AssertionError("the null telemetry read a clock")

    for name in ("time", "monotonic", "perf_counter", "process_time"):
        monkeypatch.setattr(time, name, no_clock)

    tel = NULL_TELEMETRY
    with tel.span("outer") as span:
        assert tel.tracer.current_span() is None
        span.add_event("event", timestamp=tel.now())
        with tel.time(tel.ias_verification_seconds.labels()):
            tel.ias_verdicts.labels(status="OK").inc()
        tel.observe_handshake("client", False, 0.5)
        tel.enrolled_vnfs.set(3)
    assert tel.now() == 0.0
    assert tel.registry.collect() == []
    assert tel.tracer.export() == []
    tel.reset()


def test_holds_no_state():
    for part in (NULL_TELEMETRY.registry, NULL_TELEMETRY.tracer,
                 NULL_TELEMETRY.audit_events,
                 NULL_TELEMETRY.span("s")):
        assert not hasattr(part, "__dict__")


def test_new_metric_needs_no_null_object_edit():
    class Extended(Telemetry):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.extra_seconds = self.registry.histogram(
                "vnf_sgx_extra_seconds", "a metric added later",
                labelnames=("kind",), buckets=(0.1, 1.0),
            )

    null = Extended(registry=NULL_TELEMETRY.registry, now=NULL_TELEMETRY.now,
                    tracer=NULL_TELEMETRY.tracer)
    null.extra_seconds.labels(kind="k").observe(0.5)
    assert null.registry.collect() == []
