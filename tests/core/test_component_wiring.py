"""Deployment-wide settings reach components whenever they were built.

A deployment's telemetry and retry policy live on its clock, and every
client and enrollment session reads them when it runs, so the order of
the calls does not matter.  Most of these tests watch the RA-TLS IAS
pool: after ``build_ratls()`` it is the Verification Manager's only IAS
client, so it serves host attestation as well as the handshake-time
quote checks.  The last three watch components that no deployment call
ever handed a setting to: a baseline northbound client, a pooled IAS
client and an enrollment session, each built before the setting changed.
"""

import pytest

from repro.core import Deployment
from repro.core.enrollment import EnrollmentSession
from repro.core.workflow import IAS_ADDRESS
from repro.errors import IasUnavailable
from repro.net.faults import FaultPlan
from repro.net.retry import RetryPolicy
from repro.obs import render_prometheus
from repro.sdn.northbound import MODE_HTTPS

POLICY = RetryPolicy(max_attempts=4, base_backoff=0.01, jitter=0.0)


def _ias_brownout(deployment, failures=2):
    """The next ``failures`` IAS requests answer 503."""
    deployment.install_faults(
        FaultPlan().http_error(IAS_ADDRESS, 503, count=failures)
    )


@pytest.mark.parametrize("order", ["policy-then-ratls", "ratls-then-policy"])
def test_retry_policy_reaches_ratls_pool_in_either_order(order):
    deployment = Deployment(seed=b"wiring-retry", vnf_count=1)
    if order == "policy-then-ratls":
        deployment.set_retry_policy(POLICY)
        deployment.build_ratls()
    else:
        deployment.build_ratls()
        deployment.set_retry_policy(POLICY)

    _ias_brownout(deployment)
    deployment.enroll_ratls("vnf-1")

    _ias_brownout(deployment)
    result = deployment.vm.attest_host(deployment.agent_client,
                                       deployment.host.name)
    assert result.trustworthy


def test_clearing_the_policy_reaches_ratls_pool():
    deployment = Deployment(seed=b"wiring-clear", vnf_count=1,
                            retry_policy=POLICY)
    deployment.build_ratls()
    deployment.set_retry_policy(None)
    _ias_brownout(deployment, failures=1)
    with pytest.raises(IasUnavailable):
        deployment.vm.attest_host(deployment.agent_client,
                                  deployment.host.name)


def _span_count(telemetry):
    return len(telemetry.tracer.export_flat())


def test_disabled_telemetry_detaches_every_built_component():
    deployment = Deployment(seed=b"wiring-detach", vnf_count=2,
                            retry_policy=POLICY)
    detached = deployment.enable_telemetry(serve=False)
    deployment.build_kms(shard_count=2)
    deployment.build_ratls()
    fabric = deployment.build_fabric(replica_count=3)
    deployment.disable_telemetry()
    metrics_before = render_prometheus(detached.registry)
    spans_before = _span_count(detached)

    _ias_brownout(deployment)
    deployment.enroll("vnf-1")
    _ias_brownout(deployment)
    deployment.enroll_ratls("vnf-2")
    kms = deployment.kms
    kms.create_tenant("tenant")
    token = kms.authorize("tenant",
                          deployment.vm.issued_certificate("vnf-1"))
    client = deployment.kms_client("tenant", token)
    client.store("db", b"secret")
    assert client.fetch("db") == b"secret"
    client.close()
    fabric.revoke_vnf("vnf-1")

    assert render_prometheus(detached.registry) == metrics_before
    assert _span_count(detached) == spans_before


def test_telemetry_enabled_after_builds_counts_pool_retries():
    deployment = Deployment(seed=b"wiring-late", vnf_count=1,
                            retry_policy=POLICY)
    deployment.build_ratls()
    telemetry = deployment.enable_telemetry(serve=False)
    try:
        _ias_brownout(deployment)
        deployment.enroll_ratls("vnf-1")
        attempts = telemetry.retry_attempts.labels(operation="ias-verify")
        assert attempts.value == 2
    finally:
        deployment.disable_telemetry()


def test_retry_policy_reaches_a_baseline_client_built_before_it():
    deployment = Deployment(seed=b"wiring-baseline", vnf_count=1)
    client = deployment.baseline_client(MODE_HTTPS)
    deployment.set_retry_policy(POLICY)
    deployment.install_faults(FaultPlan().refuse_connections(
        deployment.controller_address(MODE_HTTPS), count=1))
    assert "switches" in client.summary()


def test_retry_policy_reaches_a_pool_handed_out_before_it():
    deployment = Deployment(seed=b"wiring-pool", vnf_count=1)
    quote = deployment.attestation_enclave.collect_quoted_evidence(
        b"\x07" * 16, b"wiring-pool").quote.to_bytes()
    pool = deployment.pooled_ias_client()
    deployment.set_retry_policy(POLICY)
    _ias_brownout(deployment)
    try:
        assert pool.verify_quote(quote, nonce="n").ok
    finally:
        pool.close()


def test_session_built_before_telemetry_records_its_steps():
    deployment = Deployment(seed=b"wiring-session", vnf_count=1)
    session = EnrollmentSession(
        vm=deployment.vm, agent=deployment.agent_client,
        host_name=deployment.host.name, vnf_name="vnf-1",
        controller_address=str(deployment.controller_address()),
    )
    telemetry = deployment.enable_telemetry(serve=False)
    try:
        session.attest_host()
        session.provision()
        session.connect(deployment.enclave_client("vnf-1"))
        steps = [timing.step for timing in session.timings]
        names = [span["name"] for span in telemetry.tracer.export_flat()]
        assert len(steps) == 3
        assert [name for name in names if name in steps] == steps
    finally:
        deployment.disable_telemetry()
