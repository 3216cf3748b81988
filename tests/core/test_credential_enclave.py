"""The VNF credential enclave: provisioning, in-enclave TLS, sealing."""

import pytest

from repro.core.credential_enclave import (
    CredentialEnclave,
    reference_measurement,
)
from repro.core.provisioning import binding_hash
from repro.errors import (
    EnclaveMemoryViolation,
    ProvisioningError,
    SealingError,
)


@pytest.fixture
def enrolled(deployment):
    deployment.enroll("vnf-1")
    return deployment


def test_measurement_matches_reference(deployment):
    enclave = deployment.credential_enclaves["vnf-1"]
    assert enclave.enclave.mrenclave == reference_measurement()


def test_binding_quote_covers_delivery_key(deployment):
    enclave = deployment.credential_enclaves["vnf-1"]
    vm_nonce = b"\x01" * 16
    public = enclave.begin_provisioning(vm_nonce)
    quote = enclave.quote_binding(b"deployment-basename")
    assert quote.report_data == binding_hash(public, vm_nonce)


def test_binding_report_requires_begin(deployment):
    enclave = deployment.credential_enclaves["vnf-1"]
    with pytest.raises(ProvisioningError):
        enclave.quote_binding(b"basename")


def test_has_credentials_lifecycle(deployment):
    enclave = deployment.credential_enclaves["vnf-1"]
    assert not enclave.has_credentials()
    deployment.enroll("vnf-1")
    assert enclave.has_credentials()
    assert enclave.enclave.ecall("credential_subject") == "vnf-1"


def test_request_through_enclave(enrolled):
    client = enrolled.enclave_client("vnf-1")
    assert client.summary()["controller"] == "floodlight"
    client.push_flow("00:00:01", "ce-rule", {"eth_src": "h1"}, "drop")
    assert "00:00:01" in client.list_flows()
    client.delete_flow("ce-rule")


def test_request_without_credentials_fails(deployment):
    client = deployment.enclave_client("vnf-1")
    with pytest.raises(ProvisioningError):
        client.summary()


def test_credentials_unreachable_from_host(enrolled):
    enclave = enrolled.credential_enclaves["vnf-1"].enclave
    for key in ("bundle", "tls_client", "conn"):
        with pytest.raises(EnclaveMemoryViolation):
            enclave.memory.read(key)


def test_connection_reuse(enrolled):
    client = enrolled.enclave_client("vnf-1")
    client.summary()
    connections_before = enrolled.network.connections_opened
    client.summary()
    client.summary()
    assert enrolled.network.connections_opened == connections_before


def test_disconnect_then_reconnect(enrolled):
    client = enrolled.enclave_client("vnf-1")
    client.summary()
    client.close()
    assert client.summary()["controller"] == "floodlight"


def test_reenrollment_after_revocation_handshakes_anew(enrolled):
    # Step 6 of the second enrollment must authenticate with the new
    # certificate, not ride the session the revoked one opened.
    telemetry = enrolled.enable_telemetry()
    full = telemetry.histogram("vnf_sgx_tls_handshake_seconds").labels(
        role="client", resumed="false")
    enrolled.vm.revoke_vnf("vnf-1")
    session = enrolled.enroll("vnf-1")
    assert session.state == "enrolled"
    assert full.count == 1


def test_seal_restore_cycle(enrolled):
    enclave = enrolled.credential_enclaves["vnf-1"]
    sealed = enclave.seal_credentials()
    enrolled.host.platform.destroy_enclave(enclave.enclave)
    fresh = CredentialEnclave(enrolled.host, enrolled.vendor_key,
                              enrolled.network, "vnf-1")
    assert not fresh.has_credentials()
    assert fresh.restore_credentials(sealed) == "vnf-1"
    assert fresh.client.summary()["controller"] == "floodlight"


def test_sealed_blob_useless_on_other_platform(enrolled):
    from repro.core import Deployment

    sealed = enrolled.credential_enclaves["vnf-1"].seal_credentials()
    other = Deployment(seed=b"other-platform", vnf_count=1)
    foreign = other.credential_enclaves["vnf-1"]
    with pytest.raises(SealingError):
        foreign.restore_credentials(sealed)


def test_wipe_credentials(enrolled):
    enclave = enrolled.credential_enclaves["vnf-1"]
    enclave.wipe()
    assert not enclave.has_credentials()
    with pytest.raises(ProvisioningError):
        enclave.client.summary()


def test_delivery_key_is_single_use(enrolled):
    # After provisioning completes, the delivery key is erased; replaying
    # the provisioning message cannot re-install credentials.
    enclave = enrolled.credential_enclaves["vnf-1"]
    with pytest.raises(ProvisioningError):
        enclave.enclave.ecall("complete_provisioning", b"\x00" * 32)
