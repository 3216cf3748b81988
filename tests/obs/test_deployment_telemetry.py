"""Each deployment records only its own work.

A deployment's telemetry lives on its virtual clock, and every emitting
component reads it from a clock it already holds: the TLS client through
its channel, even inside a credential enclave.  So two deployments in one
process keep apart, and turning one off leaves the other recording.
"""

import pytest

from repro.core import Deployment
from repro.obs import NULL_TELEMETRY
from repro.obs.metrics import M_TLS_HANDSHAKE_SECONDS

FULL = ("client", "false")
RESUMED = ("client", "true")


def _handshakes(telemetry):
    """``(role, resumed) -> count`` from the handshake histogram."""
    family = telemetry.histogram(M_TLS_HANDSHAKE_SECONDS)
    return {labels: child.count for labels, child in family.children()}


def _children(telemetry):
    """Every labelled child the registry holds, by family name."""
    return {family.name: family.children()
            for family in telemetry.registry.collect()
            if family.children()}


@pytest.fixture
def pair():
    a = Deployment(seed=b"telemetry-a", vnf_count=2)
    b = Deployment(seed=b"telemetry-b", vnf_count=3)
    yield a.enable_telemetry(serve=False), a, b.enable_telemetry(serve=False), b
    a.disable_telemetry()
    b.disable_telemetry()


def test_each_deployment_counts_only_its_own_handshakes(pair):
    tel_a, a, tel_b, b = pair
    a.run_workflow()
    # Two host and two enclave quotes over IAS (one full handshake, then
    # resumed) plus each VNF's full controller handshake in its enclave.
    assert _handshakes(tel_a) == {FULL: 3, RESUMED: 3}
    assert _children(tel_b) == {}

    b.disable_telemetry()
    client = a.enclave_client("vnf-1")
    client.close()
    client.summary()  # a direct reconnect, past every Deployment method
    assert _handshakes(tel_a) == {FULL: 3, RESUMED: 4}
    assert _children(tel_b) == {}


def test_disabling_one_deployment_leaves_the_other_recording(pair):
    tel_a, a, tel_b, b = pair
    a.disable_telemetry()
    assert a.telemetry is a.clock.telemetry is NULL_TELEMETRY
    assert b.telemetry is b.clock.telemetry is tel_b
    b.run_workflow()
    assert _handshakes(tel_b) == {FULL: 4, RESUMED: 5}
    assert _children(tel_a) == {}


def test_fleet_workers_record_into_their_deployment(pair):
    tel_a, a, tel_b, b = pair
    trace = b.enroll_fleet(workers=3)
    assert trace.fully_succeeded
    counts = _handshakes(tel_b)
    # One pooled IAS connection, then each VNF's controller handshake.
    assert counts == {FULL: 4}
    assert tel_b.workflow_step_seconds.labels(
        step="controller-session (step 6)").count == 3
    assert _children(tel_a) == {}
