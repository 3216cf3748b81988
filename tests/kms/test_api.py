"""The REST surface: verbs, statuses, fault injection, telemetry."""

import json

import pytest

from repro.errors import (
    KmsUnavailable,
    SecretNotFound,
    TenantAuthError,
    TenantQuotaExceeded,
)
from repro.kms import KmsClient, TenantQuota
from repro.kms.api import API_PREFIX
from repro.net.faults import FaultPlan
from repro.net.rest import HttpParser, HttpRequest
from repro.obs import NULL_TELEMETRY, MetricsRegistry, Telemetry

from tests.kms.conftest import KMS_ADDRESS, make_world


# ----------------------------------------------------------------- verbs


def test_rest_roundtrip(world, alpha):
    alpha.store("db-password", b"hunter2")
    assert alpha.fetch("db-password") == b"hunter2"
    alpha.generate("api-key", 16)
    assert sorted(alpha.names()) == ["api-key", "db-password"]
    assert len(alpha.fetch("api-key")) == 16
    alpha.delete("db-password")
    assert alpha.names() == ["api-key"]
    with pytest.raises(SecretNotFound):
        alpha.fetch("db-password")


def test_cross_tenant_fetch_denied_over_rest(world, alpha, beta):
    alpha.store("db", b"alpha-only")
    intruder = KmsClient(world.network, KMS_ADDRESS, "alpha",
                         world.tokens["beta"], "client.example.org")
    with pytest.raises(TenantAuthError):
        intruder.fetch("db")
    status, _ = intruder.fetch_raw(
        "GET", f"{API_PREFIX}/alpha/secrets/db")
    assert status == 403


def test_missing_token_is_401(world):
    raw = _raw_request(world, HttpRequest(
        "GET", f"{API_PREFIX}/alpha/secrets"))
    assert raw.status == 401


def test_unknown_routes_and_methods(world, alpha):
    status, _ = alpha.fetch_raw("GET", "/nothing/here")
    assert status == 404
    status, _ = alpha.fetch_raw("PUT", f"{API_PREFIX}/alpha/secrets/x")
    assert status == 405
    status, _ = alpha.fetch_raw("DELETE", f"{API_PREFIX}/alpha/secrets")
    assert status == 405
    status, _ = alpha.fetch_raw("GET", f"{API_PREFIX}/alpha/generate/x")
    assert status == 405


def test_malformed_store_body_is_400(world, alpha):
    status, body = alpha.fetch_raw(
        "POST", f"{API_PREFIX}/alpha/secrets/x", b"not json")
    assert status == 400 and b"malformed" in body
    status, _ = alpha.fetch_raw(
        "POST", f"{API_PREFIX}/alpha/secrets/x",
        json.dumps({"value": "zz-not-hex"}).encode())
    assert status == 400


def test_quota_maps_to_429():
    world = make_world(quota=TenantQuota(max_secrets=1))
    client = KmsClient(world.network, KMS_ADDRESS, "alpha",
                       world.tokens["alpha"], "client.example.org")
    client.store("one", b"v")
    with pytest.raises(TenantQuotaExceeded):
        client.store("two", b"v")
    status, _ = client.fetch_raw(
        "POST", f"{API_PREFIX}/alpha/secrets/two",
        json.dumps({"value": "00"}).encode())
    assert status == 429


def _raw_request(world, request: HttpRequest):
    channel = world.network.connect("client.example.org", KMS_ADDRESS)
    try:
        channel.send(request.encode())
        return HttpParser(is_server_side=False).feed(
            channel.recv_available())[0]
    finally:
        channel.close()


# --------------------------------------------------------- fault injection


def test_fault_plan_brownout_then_recovery(world, alpha):
    """An injected 503 burst surfaces as KmsUnavailable at the client and
    never reaches the service; once drained, requests succeed again."""
    alpha.store("db", b"v")
    served_before = world.endpoint.requests_served
    audit_before = len(world.service.audit_trail("alpha"))

    plan = FaultPlan()
    plan.http_error(KMS_ADDRESS, status=503, count=2)
    world.network.install_faults(plan)
    for _ in range(2):
        with pytest.raises(KmsUnavailable, match="503"):
            alpha.fetch("db")
    # Brown-out: the endpoint answered, the service never dispatched.
    assert world.endpoint.requests_served == served_before + 2
    assert len(world.service.audit_trail("alpha")) == audit_before
    assert plan.injected.get("http-error") == 2

    # Burst drained: the same persistent client recovers.
    assert alpha.fetch("db") == b"v"


def test_client_survives_channel_drop(world, alpha):
    # Drop budgets bind when a connection opens, so the plan goes in
    # before the first request.  Both directions count toward the
    # budget: the store's request and response are sends 1 and 2, and
    # the fetch's request, send 3, drops on the reused channel.
    plan = FaultPlan()
    plan.drop_after_sends(KMS_ADDRESS, sends=3)
    world.network.install_faults(plan)
    alpha.store("db", b"v")
    assert world.network.connections_opened == 1
    # The drop kills the persistent channel mid-request; the client
    # reconnects and replays transparently.
    assert alpha.fetch("db") == b"v"
    assert plan.injected == {"connection-drop": 1}
    assert world.network.connections_opened == 2


# --------------------------------------------------------------- telemetry


def test_requests_metered_and_spanned(world, alpha):
    telemetry = Telemetry(registry=MetricsRegistry(), now=world.clock.now)
    world.endpoint.instrument(telemetry)
    alpha.store("db", b"v")
    alpha.fetch("db")
    with pytest.raises(TenantAuthError):
        KmsClient(world.network, KMS_ADDRESS, "alpha",
                  world.tokens["beta"], "client.example.org").fetch("db")

    assert telemetry.kms_requests.labels(op="store", status="201").value == 1
    assert telemetry.kms_requests.labels(op="fetch", status="200").value == 1
    assert telemetry.kms_requests.labels(op="fetch", status="403").value == 1
    histogram = telemetry.kms_request_seconds.labels(op="store")
    assert histogram.count == 1
    # The shard gauge mirrors resident secrets per shard.
    owner = world.service.store_backend.shard_for("alpha", "db")
    assert telemetry.kms_secrets.labels(shard=owner.label).value == 1
    # Spans were recorded on the simulated clock.
    assert telemetry.tracer.find("kms.store") is not None
    assert telemetry.tracer.find("kms.fetch") is not None
    world.endpoint.instrument(NULL_TELEMETRY)


def test_audit_counter_mirrors_tenant_trails(world, alpha):
    telemetry = Telemetry(registry=MetricsRegistry(), now=world.clock.now)
    world.endpoint.instrument(telemetry)
    alpha.store("db", b"v")
    assert telemetry.audit_events.labels(kind="kms-store").value == 1
