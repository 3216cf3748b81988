"""Prometheus text rendering, parsing, and the simulated-network endpoint."""

import pytest

from repro.errors import ConnectionRefused, RestError
from repro.net.address import Address
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    TelemetryEndpoint,
    parse_prometheus,
    render_prometheus,
    scrape_text,
    scrape_traces,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


# ----------------------------------------------------------------- rendering


def test_render_counter_with_help_and_type(registry):
    c = registry.counter("requests_total", "total requests",
                         labelnames=("mode",))
    c.labels(mode="https").inc(3)
    text = render_prometheus(registry)
    assert "# HELP requests_total total requests" in text
    assert "# TYPE requests_total counter" in text
    assert 'requests_total{mode="https"} 3' in text
    assert text.endswith("\n")


def test_render_gauge_float_formatting(registry):
    g = registry.gauge("temperature")
    g.set(1.5)
    assert "temperature 1.5" in render_prometheus(registry)
    g.set(2.0)  # integral floats render without a decimal point
    assert "temperature 2\n" in render_prometheus(registry)


def test_render_histogram_series(registry):
    h = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    text = render_prometheus(registry)
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert "lat_seconds_sum 5.55" in text
    assert "lat_seconds_count 3" in text


def test_render_escapes_label_values(registry):
    c = registry.counter("odd_total", labelnames=("path",))
    c.labels(path='a"b\\c\nd').inc()
    text = render_prometheus(registry)
    assert 'path="a\\"b\\\\c\\nd"' in text


def test_render_empty_registry_is_empty_string(registry):
    assert render_prometheus(registry) == ""


def test_families_render_in_name_order(registry):
    registry.counter("zzz_total").inc()
    registry.gauge("aaa").set(1)
    text = render_prometheus(registry)
    assert text.index("aaa") < text.index("zzz_total")


# ------------------------------------------------------------------- parsing


def test_parse_round_trip(registry):
    c = registry.counter("requests_total", labelnames=("mode", "status"))
    c.labels(mode="https", status="200").inc(7)
    h = registry.histogram("lat_seconds", buckets=(0.5,))
    h.observe(0.25)
    h.observe(0.75)
    parsed = parse_prometheus(render_prometheus(registry))
    assert parsed["requests_total"][
        (("mode", "https"), ("status", "200"))
    ] == 7
    assert parsed["lat_seconds_bucket"][(("le", "0.5"),)] == 1
    assert parsed["lat_seconds_bucket"][(("le", "+Inf"),)] == 2
    assert parsed["lat_seconds_count"][()] == 2
    assert parsed["lat_seconds_sum"][()] == pytest.approx(1.0)


def test_parse_unescapes_label_values(registry):
    c = registry.counter("odd_total", labelnames=("path",))
    value = 'a"b\\c\nd'
    c.labels(path=value).inc()
    parsed = parse_prometheus(render_prometheus(registry))
    assert parsed["odd_total"][(("path", value),)] == 1


def test_parse_skips_comments_and_blanks():
    parsed = parse_prometheus("# HELP x y\n\n# TYPE x counter\nx 4\n")
    assert parsed == {"x": {(): 4.0}}


# ------------------------------------------------------------------ endpoint


@pytest.fixture
def served(registry):
    network = Network(VirtualClock())
    telemetry = Telemetry(registry=registry, now=network.clock.now)
    address = Address("vm", 9100)
    endpoint = TelemetryEndpoint(telemetry, network, address)
    return network, telemetry, address, endpoint


def test_scrape_metrics_over_simulated_network(served, registry):
    network, telemetry, address, endpoint = served
    telemetry.credentials_issued.labels(variant="delivery").inc(2)
    text = scrape_text(network, address)
    parsed = parse_prometheus(text)
    assert parsed["vnf_sgx_credentials_issued_total"][
        (("variant", "delivery"),)
    ] == 2
    assert endpoint.scrapes_served == 1


def test_scrape_traces_over_simulated_network(served):
    network, telemetry, address, endpoint = served
    with telemetry.span("workflow", vnfs=2):
        with telemetry.span("step"):
            network.clock.advance(0.5)
    traces = scrape_traces(network, address)
    assert traces[0]["name"] == "workflow"
    assert traces[0]["attributes"] == {"vnfs": 2}
    assert traces[0]["children"][0]["name"] == "step"
    assert traces[0]["children"][0]["duration"] == pytest.approx(0.5)


def test_scrape_refused_when_nothing_listens(served):
    network, _, address, _ = served
    with pytest.raises(ConnectionRefused):
        scrape_text(network, Address("vm", 9999))  # nothing listening


def test_endpoint_404_on_unroutable_path(served):
    network, _, address, _ = served
    from repro.obs.exposition import scrape

    with pytest.raises(RestError):
        scrape(network, address, path="/nope")


def test_endpoint_close_stops_listening(served):
    network, _, address, endpoint = served
    endpoint.close()
    with pytest.raises(ConnectionRefused):
        scrape_text(network, address)
