"""The CSR provisioning variant: keys generated inside the enclave."""

import pytest

from repro.core import Deployment
from repro.core.workflow import VALIDATION_KEYSTORE
from repro.errors import AttestationFailed, ProvisioningError, ReproError


@pytest.fixture
def attested(deployment):
    deployment.vm.attest_host(deployment.agent_client, deployment.host.name)
    return deployment


def test_csr_enrollment_end_to_end(attested):
    certificate = attested.vm.enroll_vnf(
        attested.agent_client, attested.host.name, "vnf-1",
        str(attested.controller_address()), csr=True,
    )
    certificate.verify_signature(attested.vm.ca.certificate.public_key)
    assert attested.credential_enclaves["vnf-1"].has_credentials()
    assert attested.enclave_client("vnf-1").summary()["controller"] == (
        "floodlight"
    )


def test_csr_requires_trusted_host(deployment):
    with pytest.raises(AttestationFailed):
        deployment.vm.enroll_vnf(
            deployment.agent_client, deployment.host.name, "vnf-1",
            str(deployment.controller_address()), csr=True,
        )


def test_csr_key_never_leaves_enclave(attested):
    attested.vm.enroll_vnf(
        attested.agent_client, attested.host.name, "vnf-1",
        str(attested.controller_address()), csr=True,
    )
    from repro.errors import EnclaveMemoryViolation

    enclave = attested.credential_enclaves["vnf-1"].enclave
    with pytest.raises(EnclaveMemoryViolation):
        enclave.memory.read("csr_key")
    with pytest.raises(EnclaveMemoryViolation):
        enclave.memory.read("bundle")


def test_install_certificate_checks_key_match(attested, pki):
    # Get a CSR flow started, then try installing a certificate for a
    # *different* key: the enclave must refuse.
    enclave = attested.credential_enclaves["vnf-1"]
    enclave.generate_csr("vnf-1", b"\x00" * 16)
    with pytest.raises(ProvisioningError):
        enclave.install_certificate(
            pki.client_cert.to_bytes(), (pki.ca.certificate.to_bytes(),),
            "controller:9443",
        )


def test_install_without_csr_refused(attested):
    enclave = attested.credential_enclaves["vnf-1"]
    with pytest.raises(ProvisioningError):
        enclave.enclave.ecall("install_certificate", b"cert", (), "x:1")


def test_csr_revocation_works_like_standard(attested):
    attested.vm.enroll_vnf(
        attested.agent_client, attested.host.name, "vnf-1",
        str(attested.controller_address()), csr=True,
    )
    client = attested.enclave_client("vnf-1")
    assert client.summary()
    attested.vm.revoke_vnf("vnf-1")
    client.close()
    with pytest.raises(ReproError):
        client.summary()


def test_csr_audit_marks_variant(attested):
    attested.vm.enroll_vnf(
        attested.agent_client, attested.host.name, "vnf-1",
        str(attested.controller_address()), csr=True,
    )
    events = attested.vm.audit.events("credential-issued")
    assert any("(csr)" in event.details for event in events)


def test_csr_enrollment_takes_the_keystore_step():
    """A CSR-enrolled VNF runs the session's three steps, keystore update
    included, so stock-Floodlight validation accepts it."""
    deployment = Deployment(seed=b"csr-keystore", vnf_count=1,
                            client_validation=VALIDATION_KEYSTORE)
    session = deployment.enroll("vnf-1", csr=True)
    assert session.succeeded
    assert len(session.timings) == 3
    [issued] = deployment.vm.audit.events("credential-issued")
    assert issued.details.endswith("(csr)")
    assert deployment.keystore.contains_certificate(
        deployment.vm.issued_certificate("vnf-1")
    )
    assert deployment.enclave_client("vnf-1").summary()["controller"] == (
        "floodlight"
    )


def test_csr_enrollment_is_observed_like_delivery():
    deployment = Deployment(seed=b"csr-telemetry", vnf_count=1)
    telemetry = deployment.enable_telemetry()
    try:
        deployment.enroll("vnf-1", csr=True)
        metrics = deployment.scrape_metrics()
        assert ('vnf_sgx_vnf_attestation_seconds_count{variant="csr"} 1'
                in metrics)
        provisioning = telemetry.tracer.find("credential-provisioning")
        assert provisioning.attributes["variant"] == "csr"
        assert [child.name for child in provisioning.children] == [
            "enclave-attestation", "credential-issuance",
        ]
        assert provisioning.find("ias-verification") is not None
    finally:
        deployment.disable_telemetry()
