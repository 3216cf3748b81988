"""TLS test fixtures: a ready server endpoint on the simulated network."""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.net.address import Address
from repro.net.simnet import Network
from repro.tls import TlsClient, TlsConfig, TlsServer


class TlsWorld(NamedTuple):
    """A network with a listening echo server and client factories."""

    network: Network
    address: Address
    server: TlsServer
    pki: object

    def connect(self, client: TlsClient, name: str = "server"):
        channel = self.network.connect("client-host", self.address)
        return client.connect(channel, server_name=name)


def make_world(network, pki, rng, require_client_auth=False,
               client_validator=None, port=443) -> TlsWorld:
    """Stand up an upper-casing echo server."""
    config = TlsConfig(
        certificate_chain=[pki.server_cert],
        private_key=pki.server_key,
        truststore=pki.truststore,
        require_client_auth=require_client_auth,
        client_validator=client_validator,
        rng=rng,
    )
    server = TlsServer(config)

    def on_data(conn):
        data = conn.recv_available()
        if data:
            conn.send(data.upper())

    address = Address("server", port)
    network.listen(address, lambda ch: server.accept(ch, on_data=on_data))
    return TlsWorld(network, address, server, pki)


@pytest.fixture
def world(network, pki, rng) -> TlsWorld:
    """Server-auth-only world."""
    return make_world(network, pki, rng)


@pytest.fixture
def mutual_world(network, pki, rng) -> TlsWorld:
    """Mutual-auth ("trusted HTTPS") world."""
    return make_world(network, pki, rng, require_client_auth=True)


@pytest.fixture
def client_config(pki, rng) -> TlsConfig:
    """A client config with credentials (usable in both worlds)."""
    return TlsConfig(
        certificate_chain=[pki.client_cert],
        private_key=pki.client_key,
        truststore=pki.truststore,
        rng=rng,
    )
