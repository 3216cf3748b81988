"""The northbound API in its three security modes."""

import pytest

from repro.errors import ReproError, SdnError
from repro.net.address import Address
from repro.pki.keystore import Keystore
from repro.sdn.controller import FloodlightController
from repro.sdn.northbound import (
    MODE_HTTP,
    MODE_HTTPS,
    MODE_TRUSTED,
    NorthboundEndpoint,
    keystore_validator,
)
from repro.sdn.switch import Switch
from repro.sdn.vnf import VnfRestClient
from repro.tls import TlsConfig


@pytest.fixture
def controller():
    ctl = FloodlightController()
    ctl.register_switch(Switch("s1"))
    ctl.topology.attach_host("h1", "s1", 1)
    ctl.topology.attach_host("h2", "s1", 2)
    return ctl


def tls_config(pki, rng, **kwargs):
    return TlsConfig(
        certificate_chain=[pki.server_cert],
        private_key=pki.server_key,
        truststore=pki.truststore,
        rng=rng,
        **kwargs,
    )


def client(network, pki, rng, mode, port, with_cert=True):
    return VnfRestClient(
        network, Address("server", port), "vnf-host", mode,
        truststore=pki.truststore,
        client_chain=[pki.client_cert] if with_cert else None,
        client_key=pki.client_key if with_cert else None,
        rng=rng,
    )


def test_http_mode_serves_anyone(controller, network, pki, rng):
    endpoint = NorthboundEndpoint(controller, network, Address("server", 8080),
                                  MODE_HTTP)
    c = client(network, pki, rng, MODE_HTTP, 8080, with_cert=False)
    assert c.summary()["switches"] == 1
    c.push_flow("s1", "anon-rule", {"eth_src": "h1"}, "drop")
    assert endpoint.unauthenticated_writes == 1


def test_https_mode_authenticates_server_only(controller, network, pki, rng):
    endpoint = NorthboundEndpoint(controller, network, Address("server", 8443),
                                  MODE_HTTPS, tls_config(pki, rng))
    c = client(network, pki, rng, MODE_HTTPS, 8443, with_cert=False)
    c.push_flow("s1", "anon-tls-rule", {"eth_src": "h1"}, "drop")
    assert endpoint.unauthenticated_writes == 1


def test_trusted_mode_requires_client_cert(controller, network, pki, rng):
    endpoint = NorthboundEndpoint(controller, network, Address("server", 9443),
                                  MODE_TRUSTED, tls_config(pki, rng))
    good = client(network, pki, rng, MODE_TRUSTED, 9443)
    response = good.push_flow("s1", "auth-rule", {"eth_src": "h1"}, "drop")
    assert response["by"] == "client"
    assert endpoint.unauthenticated_writes == 0

    anonymous = client(network, pki, rng, MODE_TRUSTED, 9443, with_cert=False)
    with pytest.raises(ReproError):
        anonymous.summary()


def test_keystore_validation_model(controller, network, pki, rng):
    keystore = Keystore()
    NorthboundEndpoint(
        controller, network, Address("server", 9444), MODE_TRUSTED,
        tls_config(pki, rng, client_validator=keystore_validator(keystore)),
    )
    with pytest.raises(ReproError):
        client(network, pki, rng, MODE_TRUSTED, 9444).summary()
    keystore.add_trusted("client", pki.client_cert)
    assert client(network, pki, rng, MODE_TRUSTED, 9444).summary()


def test_routes_and_errors(controller, network, pki, rng):
    NorthboundEndpoint(controller, network, Address("server", 8081),
                       MODE_HTTP)
    c = client(network, pki, rng, MODE_HTTP, 8081, with_cert=False)
    # unknown path
    response = c.request("GET", "/nope")
    assert response.status == 404
    # malformed flow body
    response = c.request("POST", "/wm/staticflowpusher/json", b"{}")
    assert response.status == 400
    # devices and links and switches endpoints
    devices = c.request_json("GET", "/wm/device/")
    assert {d["host"] for d in devices} == {"h1", "h2"}
    assert c.request_json("GET", "/wm/topology/links/json") == []
    switches = c.request_json("GET", "/wm/core/controller/switches/json")
    assert switches[0]["dpid"] == "s1"


def test_flow_listing_via_rest(controller, network, pki, rng):
    NorthboundEndpoint(controller, network, Address("server", 8082),
                       MODE_HTTP)
    c = client(network, pki, rng, MODE_HTTP, 8082, with_cert=False)
    c.push_flow("s1", "listed", {"eth_src": "h1"}, "output:2", priority=42)
    flows = c.list_flows()
    assert flows["s1"][0]["name"] == "listed"
    assert flows["s1"][0]["priority"] == 42
    c.delete_flow("listed")
    assert c.list_flows() == {}


def test_bad_mode_configuration(controller, network, pki, rng):
    with pytest.raises(SdnError):
        NorthboundEndpoint(controller, network, Address("server", 1), "ftp")
    with pytest.raises(SdnError):
        NorthboundEndpoint(controller, network, Address("server", 2),
                           MODE_HTTPS)  # missing TLS config


def test_per_switch_flow_endpoint(controller, network, pki, rng):
    NorthboundEndpoint(controller, network, Address("server", 8083),
                       MODE_HTTP)
    c = client(network, pki, rng, MODE_HTTP, 8083, with_cert=False)
    c.push_flow("s1", "pf", {"eth_src": "h1"}, "output:2")
    stats = c.request_json("GET", "/wm/core/switch/s1/flow/json")
    assert stats["dpid"] == "s1"
    assert stats["flows"][0]["name"] == "pf"
    assert "packetsSeen" in stats
    # Unknown switch -> 400 (TopologyError surfaced); malformed -> 404.
    assert c.request("GET", "/wm/core/switch/ghost/flow/json").status == 400
    assert c.request("GET", "/wm/core/switch//flow/json").status == 404
    assert c.request("POST", "/wm/core/switch/s1/flow/json").status == 404
