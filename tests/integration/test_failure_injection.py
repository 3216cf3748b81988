"""Failure injection: the system must fail *closed* and with clean errors."""

import pytest

from repro.core import Deployment
from repro.errors import (
    AttestationFailed,
    ConnectionRefused,
    EnclaveLifecycleError,
    IasError,
    ReproError,
    VnfSgxError,
)


def test_ias_unreachable_blocks_enrollment():
    deployment = Deployment(seed=b"fail-ias", vnf_count=1)
    deployment.network.stop_listening(deployment.ias_http.address)
    with pytest.raises(ConnectionRefused):
        deployment.vm.attest_host(deployment.agent_client,
                                  deployment.host.name)
    assert not deployment.vm.host_trusted(deployment.host.name)
    assert not deployment.credential_enclaves["vnf-1"].has_credentials()


def test_controller_down_surfaces_cleanly():
    deployment = Deployment(seed=b"fail-ctl", vnf_count=1)
    deployment.vm.attest_host(deployment.agent_client, deployment.host.name)
    deployment.vm.enroll_vnf(deployment.agent_client, deployment.host.name,
                             "vnf-1", str(deployment.controller_address()))
    deployment.network.stop_listening(deployment.controller_address())
    with pytest.raises(ConnectionRefused):
        deployment.enclave_client("vnf-1").summary()


def test_agent_down_blocks_attestation():
    deployment = Deployment(seed=b"fail-agent", vnf_count=1)
    deployment.network.stop_listening(deployment.agent.address)
    with pytest.raises(ConnectionRefused):
        deployment.vm.attest_host(deployment.agent_client,
                                  deployment.host.name)


def test_destroyed_enclave_cannot_serve():
    deployment = Deployment(seed=b"fail-destroy", vnf_count=1)
    deployment.enroll("vnf-1")
    deployment.host.platform.destroy_enclave(
        deployment.credential_enclaves["vnf-1"].enclave
    )
    with pytest.raises(EnclaveLifecycleError):
        deployment.enclave_client("vnf-1").summary()


def test_enclave_destroyed_mid_provisioning():
    deployment = Deployment(seed=b"fail-mid", vnf_count=1)
    deployment.vm.attest_host(deployment.agent_client, deployment.host.name)
    # Kill the enclave between attestation and provisioning: the host
    # agent surfaces the failure, the VM refuses to record an enrolment.
    deployment.host.platform.destroy_enclave(
        deployment.credential_enclaves["vnf-1"].enclave
    )
    with pytest.raises(VnfSgxError):
        deployment.vm.enroll_vnf(
            deployment.agent_client, deployment.host.name, "vnf-1",
            str(deployment.controller_address()),
        )
    with pytest.raises(VnfSgxError):
        deployment.vm.issued_certificate("vnf-1")


def test_corrupted_avr_rejected():
    deployment = Deployment(seed=b"fail-avr", vnf_count=1)

    # A middlebox mangles IAS's verdicts: signature check must catch it.
    original = deployment.ias.verify_quote

    def corrupting(quote_bytes, nonce=""):
        import dataclasses

        avr = original(quote_bytes, nonce)
        return dataclasses.replace(avr, quote_status="OK" if
                                   avr.quote_status != "OK" else
                                   "KEY_REVOKED")

    deployment.ias.verify_quote = corrupting
    with pytest.raises((IasError, ReproError)):
        deployment.vm.attest_host(deployment.agent_client,
                                  deployment.host.name)


def test_replayed_host_evidence_rejected():
    deployment = Deployment(seed=b"fail-replay", vnf_count=1)
    # Record genuine evidence for nonce A, replay it for the VM's nonce B.
    recorded = deployment.agent_client.attest_host(
        b"A" * 16, deployment.vm.policy.basename
    )

    class ReplayingAgent:
        def attest_host(self, nonce, basename):
            return recorded  # stale evidence

    with pytest.raises(AttestationFailed) as excinfo:
        deployment.vm.attest_host(ReplayingAgent(), deployment.host.name)
    assert "bind" in str(excinfo.value)


def test_half_open_agent_channel_recovers():
    deployment = Deployment(seed=b"fail-halfopen", vnf_count=1)
    deployment.agent_client.attest_host(b"\x01" * 16, b"b")
    deployment.agent_client._stream._current.close()
    # The stub reconnects transparently.
    evidence = deployment.agent_client.attest_host(b"\x02" * 16, b"b")
    assert evidence.quote is not None
