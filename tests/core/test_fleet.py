"""Fleet enrollment: equivalence, single-flight, failures.

The central property (asserted for several pool widths and DRBG-shuffled
submission orders): ``enroll_fleet(names, workers=k)`` is observably
equivalent to a serial :meth:`Deployment.enroll` loop over the same
``names`` — byte-identical certificates, identical serial assignment,
identical post-revocation state.
"""

import pytest

from repro.core import Deployment
from repro.core import events as ev
from repro.errors import VnfSgxError
from repro.net.faults import FaultPlan
from repro.net.retry import RetryPolicy


def _shuffled(names, seed: bytes):
    """Deterministic DRBG-seeded shuffle (Fisher-Yates)."""
    from repro.crypto.rng import HmacDrbg

    rng = HmacDrbg(seed, personalization=b"fleet-shuffle")
    order = list(names)
    for i in range(len(order) - 1, 0, -1):
        j = rng.random_int(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def _serial_reference(seed: bytes, vnf_count: int, order, revoke=()):
    """Enroll ``order`` serially; returns {name: cert bytes} + CA."""
    dep = Deployment(seed=seed, vnf_count=vnf_count)
    for name in order:
        dep.enroll(name)
    for name in revoke:
        dep.vm.revoke_vnf(name)
    certs = {name: dep.vm.issued_certificate(name).to_bytes()
             for name in order}
    return dep, certs


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_fleet_equals_serial_loop(workers):
    """Same submission order => byte-identical certificates at any pool
    width, plus identical serial numbers and revocation behaviour."""
    seed, count = b"fleet-equivalence", 6
    order = _shuffled([f"vnf-{i}" for i in range(1, count + 1)],
                      seed + bytes([workers]))
    revoke = order[:2]

    serial_dep, serial_certs = _serial_reference(seed, count, order,
                                                 revoke=revoke)

    fleet_dep = Deployment(seed=seed, vnf_count=count)
    report = fleet_dep.enroll_fleet(order, workers=workers)
    assert report.fully_succeeded, report.failed
    assert list(report.results) == order  # submission order preserved
    for name in revoke:
        fleet_dep.vm.revoke_vnf(name)

    fleet_certs = {name: fleet_dep.vm.issued_certificate(name).to_bytes()
                   for name in order}
    assert fleet_certs == serial_certs

    # Serial assignment matches the serial loop's allocation order.
    for name in order:
        assert (fleet_dep.vm.issued_certificate(name).serial
                == serial_dep.vm.issued_certificate(name).serial)
        assert (report.results[name].certificate_serial
                == serial_dep.vm.issued_certificate(name).serial)

    # Revocation state: the same serials are revoked in both worlds.
    now = int(fleet_dep.clock.now())
    serial_crl = serial_dep.vm.ca.current_crl(now)
    fleet_crl = fleet_dep.vm.ca.current_crl(now)
    for name in order:
        serial_no = serial_dep.vm.issued_certificate(name).serial
        assert (fleet_crl.is_revoked(serial_no)
                == serial_crl.is_revoked(serial_no)
                == (name in revoke))


def test_fleet_single_flight_host_attestation():
    """One host, many VNFs: the fleet attests the host exactly once and
    reuses one IAS connection, where the serial loop repeats both."""
    dep = Deployment(seed=b"fleet-single-flight", vnf_count=8)
    report = dep.enroll_fleet(workers=4)
    assert report.fully_succeeded, report.failed
    attested = dep.vm.audit.events(kind=ev.EVENT_HOST_ATTESTED)
    assert len(attested) == 1
    assert set(report.host_attestations) == {dep.host.name}
    # 1 host quote + 8 VNF quotes over a single pooled connection.
    assert report.ias_connects == 1
    assert report.ias_reused_exchanges == 8


def test_fleet_multi_host_partial_failure():
    """A tampered host fails its VNFs; the rest of the fleet proceeds
    (partial-failure semantics, mirroring run_workflow)."""
    dep = Deployment(seed=b"fleet-partial", vnf_count=4, host_count=2)
    bad_host = dep.hosts[1]
    bad_host.tamper_file("/usr/bin/dockerd", b"evil")
    report = dep.enroll_fleet(workers=4)
    on_bad = {name for name, host in dep.vnf_host.items()
              if host is bad_host}
    assert set(report.failed) == on_bad
    assert not report.fully_succeeded
    for name in set(dep.vnf_names) - on_bad:
        assert report.results[name].succeeded
        assert dep.vm.issued_certificate(name) is not None


def test_fleet_validates_submission():
    dep = Deployment(seed=b"fleet-validate", vnf_count=2)
    with pytest.raises(VnfSgxError, match="unknown"):
        dep.enroll_fleet(["vnf-1", "vnf-99"])
    with pytest.raises(VnfSgxError, match="duplicate"):
        dep.enroll_fleet(["vnf-1", "vnf-1"])
    with pytest.raises(VnfSgxError, match="worker"):
        dep.enroll_fleet(workers=0)
    # An empty submission is a successful no-op report.
    report = dep.enroll_fleet([])
    assert report.fully_succeeded and not report.results


def test_pooled_ias_survives_transient_faults():
    """An injected IAS brown-out mid-fleet is absorbed by the retry
    layer; the pooled connection is reused across the recovery."""
    from repro.core.workflow import IAS_ADDRESS

    policy = RetryPolicy(max_attempts=4, base_backoff=0.01, jitter=0.0)
    dep = Deployment(seed=b"fleet-faults", vnf_count=4, retry_policy=policy)
    dep.install_faults(FaultPlan().http_error(IAS_ADDRESS, 503, count=2))
    report = dep.enroll_fleet(workers=2)
    assert report.fully_succeeded, report.failed


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("fault", ["ias-503", "agent-refused"])
def test_fleet_host_step_is_retried_like_the_serial_loop(fault, count,
                                                         workers):
    """Regression: a brown-out that the step-level retry absorbs in
    run_workflow must not fail a fleet.  The fleet's single-flight host
    attestation runs through the same timed, retried session step."""
    from repro.core.workflow import IAS_ADDRESS

    policy = RetryPolicy(max_attempts=2, base_backoff=0.01, jitter=0.0)

    def faulted():
        dep = Deployment(seed=b"fleet-host-retry", vnf_count=2,
                         retry_policy=policy)
        plan = FaultPlan()
        if fault == "ias-503":
            plan.http_error(IAS_ADDRESS, 503, count=count)
        else:
            plan.refuse_connections(dep.agent.address, count=count)
        dep.install_faults(plan)
        return dep

    serial = faulted().run_workflow()
    assert serial.fully_succeeded, serial.failed
    fleet = faulted().enroll_fleet(workers=workers)
    assert fleet.fully_succeeded, fleet.failed
    assert sorted(fleet.per_vnf) == ["vnf-1", "vnf-2"]


@pytest.mark.parametrize("workers", [1, 4])
def test_fleet_shares_a_failed_host_verdict(workers):
    """Control: a brown-out outlasting both retry layers (2 client
    attempts x 2 step attempts) fails the host's one attestation, and
    with it every VNF on the host."""
    from repro.core.workflow import IAS_ADDRESS

    policy = RetryPolicy(max_attempts=2, base_backoff=0.01, jitter=0.0)
    dep = Deployment(seed=b"fleet-host-retry", vnf_count=2,
                     retry_policy=policy)
    dep.install_faults(FaultPlan().http_error(IAS_ADDRESS, 503, count=4))
    report = dep.enroll_fleet(workers=workers)
    assert set(report.failed) == {"vnf-1", "vnf-2"}
    errors = sorted(report.failed.values())
    assert errors[0].startswith("IasUnavailable:")
    assert errors[1].startswith(
        f"VnfSgxError: host {dep.host.name} failed fleet attestation: "
        "IasUnavailable:")
    assert report.host_attestations == {}


def test_pooled_ias_surfaces_service_error_not_stale_transport():
    """Regression: when a brown-out outlasts the retry deadline, the
    caller must see the underlying ``IasUnavailable`` — not the
    ``ChannelClosed`` from the stale pooled connection that happened to
    be the first casualty."""
    from repro.core import PooledIasClient
    from repro.core.workflow import IAS_ADDRESS
    from repro.errors import ChannelClosed, IasUnavailable

    dep = Deployment(seed=b"fleet-stale-surface", vnf_count=1)
    quote_bytes = dep.attestation_enclave.collect_quoted_evidence(
        b"\x05" * 16, b"fleet-stale-surface").quote.to_bytes()

    pool = PooledIasClient(
        dep.network, IAS_ADDRESS, dep.ias_http.ias_truststore,
        dep.ias.report_signing_public_key, rng=dep.rng,
    )
    dep.set_retry_policy(
        RetryPolicy(max_attempts=3, base_backoff=0.01, jitter=0.0))
    # Warm the pooled connection with a healthy exchange.
    assert pool.verify_quote(quote_bytes, nonce="warm").ok
    assert pool.connects == 1

    # The server silently drops the idle connection (it is now stale),
    # and the service brown-out outlasts the whole retry budget.
    pool._stream._current._channel.peer.close()
    dep.install_faults(FaultPlan().http_error(IAS_ADDRESS, 503, count=10))

    with pytest.raises(IasUnavailable) as excinfo:
        pool.verify_quote(quote_bytes, nonce="browned-out")
    assert not isinstance(excinfo.value, ChannelClosed)
    # The stale connection was replaced within the first attempt, so the
    # 503 verdicts (not the transport) drove every retry.
    assert pool.connects >= 2

    # Once the brown-out clears the same client recovers.
    dep.install_faults(None)
    assert pool.verify_quote(quote_bytes, nonce="recovered").ok
    pool.close()


def test_pooled_ias_fresh_connection_fault_still_propagates():
    """A transport fault on a *fresh* connection is genuine (nothing
    stale to blame) and must reach the retry layer unchanged."""
    from repro.core import PooledIasClient
    from repro.core.workflow import IAS_ADDRESS
    from repro.errors import ChannelClosed

    dep = Deployment(seed=b"fleet-fresh-fault", vnf_count=1)
    quote_bytes = dep.attestation_enclave.collect_quoted_evidence(
        b"\x06" * 16, b"fleet-fresh-fault").quote.to_bytes()
    # Every connection to IAS drops mid-stream, from the very first send.
    dep.install_faults(
        FaultPlan().drop_after_sends(IAS_ADDRESS, sends=1, connections=99))

    pool = PooledIasClient(
        dep.network, IAS_ADDRESS, dep.ias_http.ias_truststore,
        dep.ias.report_signing_public_key, rng=dep.rng,
    )
    dep.set_retry_policy(
        RetryPolicy(max_attempts=2, base_backoff=0.01, jitter=0.0))
    with pytest.raises(ChannelClosed):
        pool.verify_quote(quote_bytes)
    pool.close()


def test_fleet_keystore_validation_model():
    """The stock-Floodlight keystore model works under the pool: every
    enrolled VNF lands in the keystore before its first connection."""
    dep = Deployment(seed=b"fleet-keystore", vnf_count=3,
                     client_validation="keystore")
    report = dep.enroll_fleet(workers=3)
    assert report.fully_succeeded, report.failed
    for name in dep.vnf_names:
        assert name in dep.keystore.trusted_aliases()
        assert dep.keystore.contains_certificate(
            dep.vm.issued_certificate(name)
        )


def test_fleet_report_mirrors_workflow_trace_shape():
    """A fleet run reports through WorkflowTrace, with the surface the
    experiment harness consumes: per_vnf, failed, step_totals."""
    dep = Deployment(seed=b"fleet-shape", vnf_count=2)
    report = dep.enroll_fleet(workers=2)
    assert set(report.per_vnf) == set(dep.vnf_names)
    assert report.failed == {}
    totals = report.step_totals()
    assert any("host-attestation" in step for step in totals)
    assert any("provisioning" in step for step in totals)
    assert report.simulated_seconds > 0.0
    assert report.clock_charges
