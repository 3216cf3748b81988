"""The baseline VNF REST client: transport management and error paths."""

import pytest

from repro.errors import SdnError
from repro.net.address import Address
from repro.sdn.controller import FloodlightController
from repro.sdn.northbound import MODE_HTTP, MODE_HTTPS, NorthboundEndpoint
from repro.sdn.switch import Switch
from repro.sdn.vnf import ControllerOps, VnfRestClient
from repro.tls import TlsConfig


@pytest.fixture
def served(network, pki, rng):
    controller = FloodlightController()
    controller.register_switch(Switch("s1"))
    NorthboundEndpoint(controller, network, Address("ctl", 8080), MODE_HTTP)
    NorthboundEndpoint(
        controller, network, Address("ctl", 8443), MODE_HTTPS,
        TlsConfig(certificate_chain=[pki.server_cert],
                  private_key=pki.server_key, rng=rng),
    )
    return controller


def test_persistent_connection_reused(served, network, pki, rng):
    client = VnfRestClient(network, Address("ctl", 8080), "vnf", MODE_HTTP,
                           rng=rng)
    client.summary()
    opened = network.connections_opened
    client.summary()
    client.summary()
    assert network.connections_opened == opened


def test_reconnect_after_close(served, network, pki, rng):
    client = VnfRestClient(network, Address("ctl", 8080), "vnf", MODE_HTTP,
                           rng=rng)
    client.summary()
    client.close()
    opened = network.connections_opened
    assert client.summary()["version"] == "1.2-model"
    assert network.connections_opened == opened + 1


def test_close_is_idempotent(served, network, rng):
    client = VnfRestClient(network, Address("ctl", 8080), "vnf", MODE_HTTP,
                           rng=rng)
    client.close()
    client.close()


def test_https_requires_truststore(served, network, rng):
    with pytest.raises(SdnError):
        VnfRestClient(network, Address("ctl", 8443), "vnf", MODE_HTTPS,
                      rng=rng)


def test_unknown_mode_rejected(served, network, rng):
    with pytest.raises(SdnError):
        VnfRestClient(network, Address("ctl", 8080), "vnf", "gopher",
                      rng=rng)


def test_error_statuses_raise_with_context(served, network, rng):
    client = VnfRestClient(network, Address("ctl", 8080), "vnf", MODE_HTTP,
                           rng=rng)
    with pytest.raises(SdnError) as excinfo:
        client.delete_flow("never-existed")
    assert "400" in str(excinfo.value)


def test_controller_ops_is_abstract():
    with pytest.raises(NotImplementedError):
        ControllerOps().summary()
