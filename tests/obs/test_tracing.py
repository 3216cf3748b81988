"""The span tracer: nesting, virtual-clock timestamps, determinism, export."""

import json
import threading

import pytest

from repro.errors import ObservabilityError
from repro.net.clock import VirtualClock
from repro.obs import Tracer
from repro.obs.tracing import TRACE_ROOT_CAPACITY


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def tracer(clock: VirtualClock) -> Tracer:
    return Tracer(now=clock.now)


def test_span_timestamps_come_from_the_clock(tracer, clock):
    with tracer.span("outer") as span:
        clock.advance(1.5)
    assert span.start == 0.0
    assert span.end == pytest.approx(1.5)
    assert span.duration == pytest.approx(1.5)
    assert span.finished


def test_nesting_builds_a_tree(tracer, clock):
    with tracer.span("workflow"):
        with tracer.span("attest"):
            clock.advance(0.2)
            with tracer.span("ias"):
                clock.advance(0.3)
        with tracer.span("provision"):
            clock.advance(0.1)
    roots = tracer.roots()
    assert [r.name for r in roots] == ["workflow"]
    workflow = roots[0]
    assert [c.name for c in workflow.children] == ["attest", "provision"]
    ias = workflow.children[0].children[0]
    assert ias.name == "ias"
    assert ias.parent_id == workflow.children[0].span_id
    assert ias.trace_id == workflow.trace_id
    assert workflow.parent_id is None
    assert tracer.open_depth() == 0


def test_sequential_roots_get_distinct_trace_ids(tracer):
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    a, b = tracer.roots()
    assert a.trace_id != b.trace_id
    assert a.trace_id == "trace-0001"
    assert b.trace_id == "trace-0002"


def test_identifiers_are_deterministic_sequence_numbers():
    def build() -> str:
        clock = VirtualClock()
        tracer = Tracer(now=clock.now)
        with tracer.span("a", k="v"):
            clock.advance(0.25)
            with tracer.span("b"):
                clock.advance(0.5)
        return tracer.export_json()

    assert build() == build()


def test_attributes_and_set_attribute(tracer):
    with tracer.span("s", host="ch-1") as span:
        span.set_attribute("verdict", "trusted")
    assert span.attributes == {"host": "ch-1", "verdict": "trusted"}


def test_exception_marks_error_and_propagates(tracer):
    with pytest.raises(ValueError):
        with tracer.span("failing") as span:
            raise ValueError("boom")
    assert span.attributes["error"] == "ValueError: boom"
    assert span.finished
    assert tracer.open_depth() == 0


def test_end_span_requires_innermost(tracer):
    outer = tracer.start_span("outer")
    tracer.start_span("inner")
    with pytest.raises(ObservabilityError):
        tracer.end_span(outer)


def test_find_searches_depth_first(tracer):
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("leaf"):
                pass
    assert tracer.find("leaf").name == "leaf"
    assert tracer.find("missing") is None
    assert tracer.roots()[0].find("child").name == "child"


def test_export_nested_and_flat(tracer, clock):
    with tracer.span("root"):
        clock.advance(1.0)
        with tracer.span("child"):
            clock.advance(0.5)
    nested = tracer.export()
    assert len(nested) == 1
    assert nested[0]["children"][0]["name"] == "child"
    flat = tracer.export_flat()
    assert [record["name"] for record in flat] == ["root", "child"]
    assert all("children" not in record for record in flat)
    # JSON export parses back to the nested form.
    assert json.loads(tracer.export_json()) == json.loads(
        json.dumps(nested, sort_keys=True)
    )


def test_reset_refuses_with_open_spans(tracer):
    tracer.start_span("open")
    with pytest.raises(ObservabilityError):
        tracer.reset()


def test_reset_restarts_counters(tracer):
    with tracer.span("a"):
        pass
    tracer.reset()
    assert tracer.roots() == []
    with tracer.span("b") as span:
        pass
    assert span.span_id == "span-0001"
    assert span.trace_id == "trace-0001"


def test_a_full_tracer_evicts_its_oldest_roots(tracer):
    total = 10_000
    first = tracer.start_span("root-0")  # open on this thread throughout

    def flood():
        for number in range(1, total):
            with tracer.span(f"root-{number}"):
                pass

    worker = threading.Thread(target=flood)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert [root.name for root in tracer.roots()] == [
        f"root-{number}" for number in range(total - TRACE_ROOT_CAPACITY,
                                             total)]
    assert tracer.dropped_roots == total - TRACE_ROOT_CAPACITY
    tracer.end_span(first)  # evicted while open, it still ends cleanly
    assert first.finished
    assert tracer.open_depth() == 0
    tracer.reset()
    assert (tracer.roots(), tracer.dropped_roots) == ([], 0)
