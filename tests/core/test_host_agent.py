"""The host agent protocol."""

import pytest

from repro.errors import VnfSgxError
from repro.ima.iml import MeasurementList


def test_attest_host_roundtrip(deployment):
    evidence = deployment.agent_client.attest_host(b"\x01" * 16, b"basename")
    assert MeasurementList.from_bytes(evidence.iml_bytes)
    assert evidence.quote.basename == b"basename"


def test_provisioning_operations(deployment):
    agent = deployment.agent_client
    public = agent.begin_provisioning("vnf-1", b"\x02" * 16)
    assert len(public) == 65
    quote_bytes = agent.quote_vnf("vnf-1", b"basename")
    from repro.sgx.quote import Quote

    quote = Quote.from_bytes(quote_bytes)
    assert quote.mrenclave == (
        deployment.credential_enclaves["vnf-1"].enclave.mrenclave
    )


def test_unknown_vnf_surfaces_as_error(deployment):
    with pytest.raises(VnfSgxError) as excinfo:
        deployment.agent_client.begin_provisioning("ghost-vnf", b"\x00" * 16)
    assert "ghost-vnf" in str(excinfo.value)


def test_malformed_provisioning_message_surfaces(deployment):
    deployment.agent_client.begin_provisioning("vnf-1", b"\x00" * 16)
    with pytest.raises(VnfSgxError):
        deployment.agent_client.complete_provisioning("vnf-1", b"junk")


def test_agent_survives_errors(deployment):
    # After a failed call the agent keeps serving.
    with pytest.raises(VnfSgxError):
        deployment.agent_client.begin_provisioning("ghost", b"\x00" * 16)
    evidence = deployment.agent_client.attest_host(b"\x03" * 16, b"b")
    assert evidence.quote is not None


def test_client_reconnects_after_channel_close(deployment):
    deployment.agent_client.attest_host(b"\x00" * 16, b"b")
    deployment.agent_client._stream._current.close()
    evidence = deployment.agent_client.attest_host(b"\x04" * 16, b"b")
    assert evidence.quote is not None
