"""Threat scenarios from the paper's introduction, played out end to end."""

import pytest

from repro.core import Deployment
from repro.core.enrollment import EnrollmentSession
from repro.errors import AppraisalFailed, ReproError


def fresh(seed: bytes, **kwargs) -> Deployment:
    return Deployment(seed=seed, vnf_count=1, **kwargs)


def test_credential_theft_from_host_memory_fails():
    """The headline threat: a compromised co-tenant (or the host itself)
    tries to read the VNF's credentials.  With the enclave design there is
    nothing host-visible to steal."""
    deployment = fresh(b"threat-theft")
    deployment.enroll("vnf-1")
    enclave = deployment.credential_enclaves["vnf-1"].enclave
    from repro.errors import EnclaveMemoryViolation

    with pytest.raises(EnclaveMemoryViolation):
        enclave.memory.read("bundle")
    # The sealed form on disk is ciphertext: it contains no key bits.
    sealed = deployment.credential_enclaves["vnf-1"].seal_credentials()
    certificate = deployment.vm.issued_certificate("vnf-1")
    assert certificate.public_key_bytes not in sealed


def test_stolen_baseline_credentials_work_anywhere():
    """The contrast case the paper motivates: without enclaves, exfiltrated
    credentials are immediately usable by the attacker."""
    deployment = fresh(b"threat-baseline")
    deployment.enroll("vnf-1")
    # Baseline world: key material lives in process memory.  Model the
    # attacker having copied it.
    from repro.crypto.keys import generate_keypair

    stolen_key = generate_keypair(deployment.rng)
    stolen_cert = deployment.vm.ca.issue(
        subject=deployment.vm.issued_certificate("vnf-1").subject,
        public_key_bytes=stolen_key.public.to_bytes(),
        now=deployment.clock.now_seconds(),
    )
    attacker = deployment.baseline_client(
        mode="trusted-https",
        client_chain=[stolen_cert], client_key=stolen_key,
    )
    # The controller cannot tell: possession of key material is identity.
    assert attacker.summary()["controller"] == "floodlight"


def test_topology_spoofing_blocked_by_trusted_mode():
    """Unauthorized flow writes (topology spoofing) succeed on HTTP and
    HTTPS but not on trusted HTTPS."""
    deployment = fresh(b"threat-spoof")
    deployment.enroll("vnf-1")
    spoof = dict(switch="00:00:01", name="spoofed",
                 match={"eth_dst": "h2"}, actions="output:1")
    for mode in ("http", "https"):
        client = deployment.baseline_client(mode=mode)
        client.push_flow(**spoof)
        client.delete_flow("spoofed")
    with pytest.raises(ReproError):
        deployment.baseline_client(mode="trusted-https").push_flow(**spoof)


def test_malicious_vnf_image_rejected_before_credentials():
    """Integrity verification 'prior to deployment': a host whose VNF
    container content deviates from the pinned image fails appraisal."""
    deployment = fresh(b"threat-image")
    container = deployment.host.runtime.list_containers()[0]
    deployment.host.tamper_file(
        container.root_path + "/usr/bin/vnf", b"trojaned-vnf"
    )
    session = EnrollmentSession(
        vm=deployment.vm, agent=deployment.agent_client,
        host_name=deployment.host.name, vnf_name="vnf-1",
        controller_address=str(deployment.controller_address()),
    )
    with pytest.raises(AppraisalFailed):
        session.attest_host()
    assert not deployment.credential_enclaves["vnf-1"].has_credentials()


def test_eavesdropper_sees_no_plaintext():
    """Traffic eavesdropping on the northbound link: TLS modes leak no
    request plaintext, plain HTTP leaks everything."""
    captured = []

    deployment = fresh(b"threat-tap")
    deployment.enroll("vnf-1")

    # Tap the network by wrapping the channel delivery of new connections.
    original_connect = deployment.network.connect

    def tapped_connect(source_host, destination):
        channel = original_connect(source_host, destination)
        original_send = channel.send

        def spying_send(data):
            captured.append(bytes(data))
            return original_send(data)

        channel.send = spying_send
        return channel

    deployment.network.connect = tapped_connect
    try:
        secret_path = "/wm/core/controller/summary/json"
        deployment.enclave_client("vnf-1").summary()
        tls_bytes = b"".join(captured)
        assert secret_path.encode() not in tls_bytes

        captured.clear()
        deployment.baseline_client(mode="http").summary()
        http_bytes = b"".join(captured)
        assert secret_path.encode() in http_bytes
    finally:
        deployment.network.connect = original_connect


def test_host_compromise_after_enrollment_contains_blast_radius():
    """Re-attestation catches post-enrolment compromise and revokes the
    host's credentials, protecting the controller going forward."""
    from repro.core.revocation import ReattestationMonitor

    deployment = fresh(b"threat-after")
    deployment.enroll("vnf-1")
    monitor = ReattestationMonitor(deployment.vm, ias_service=deployment.ias)
    monitor.watch(deployment.host.name, deployment.agent_client)
    deployment.host.tamper_file("/usr/bin/runc", b"escape-exploit")
    [outcome] = monitor.sweep()
    assert outcome.revoked_vnfs == ["vnf-1"]
    client = deployment.enclave_client("vnf-1")
    client.close()
    with pytest.raises(ReproError):
        client.summary()
