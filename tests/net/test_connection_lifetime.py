"""A closed connection is freed when it closes, not by the cyclic collector.

A channel pair and the endpoints above it (a TLS connection, an HTTP or
frame listener) refer to each other.  Two links break the cycles: a
channel lets its receive handler go when it closes, and the server end
holds its client end weakly.  Reference counting then frees a closed
connection, key schedules included, inside the operation that closed
it.  Every test here runs its exchanges with the collector disabled, so
anything only the collector could free shows up.
"""

from __future__ import annotations

import contextlib
import gc
import weakref
from typing import Callable, Dict

import pytest

from repro.core import Deployment
from repro.core.host_agent import HostAgentClient
from repro.crypto.gcm import AesGcm
from repro.kms import KmsClient
from repro.net.address import Address
from repro.net.channel import Channel
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.sdn.controller import FloodlightController
from repro.sdn.northbound import (
    MODE_HTTP,
    MODE_HTTPS,
    MODE_TRUSTED,
    NorthboundEndpoint,
)
from repro.sdn.switch import Switch
from repro.sdn.vnf import VnfRestClient
from repro.tls import TlsConfig
from repro.tls.connection import TlsConnection

from tests.kms.conftest import KMS_ADDRESS, make_world
from tests.net.test_transport_faults import _quote

SEED = b"connection-lifetime"
EXCHANGES = 3


@contextlib.contextmanager
def _collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _watch(monkeypatch, *classes) -> Dict[str, list]:
    """Record a weak reference to every instance of ``classes`` built
    from now on, by class name."""
    made: Dict[str, list] = {cls.__name__: [] for cls in classes}
    for cls in classes:
        def watched(self, *args, _init=cls.__init__,
                    _made=made[cls.__name__], **kwargs):
            _init(self, *args, **kwargs)
            _made.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", watched)
    return made


def _enrolled(vnf: str = "vnf-1") -> Deployment:
    deployment = Deployment(seed=SEED, vnf_count=1)
    deployment.enroll(vnf)
    deployment.enclave_client(vnf).close()  # the session step 6 left open
    return deployment


def test_an_in_enclave_reconnect_is_freed_at_close(monkeypatch):
    client = _enrolled().enclave_client("vnf-1")
    made = _watch(monkeypatch, TlsConnection, Channel, AesGcm)
    with _collector_off():
        assert client.summary()["controller"] == "floodlight"
        assert {name: sum(ref() is not None for ref in refs)
                for name, refs in made.items()} == {
            "TlsConnection": 2, "Channel": 2, "AesGcm": 4}
        client.close()
        alive = {name: sum(ref() is not None for ref in refs)
                 for name, refs in made.items()}
    assert alive == {"TlsConnection": 0, "Channel": 0, "AesGcm": 0}


# --------------------------------------------- every client that connects
#
# Each builder sets a world up and returns the exchanges to run with the
# collector off: a few requests, then a close.


def _northbound(mode: str) -> Callable:
    def build(pki, rng) -> Callable[[], None]:
        controller = FloodlightController()
        controller.register_switch(Switch("s1"))
        network = Network(VirtualClock())
        address = Address("controller", 8443)
        tls = None if mode == MODE_HTTP else TlsConfig(
            certificate_chain=[pki.server_cert], private_key=pki.server_key,
            truststore=pki.truststore, rng=rng)
        NorthboundEndpoint(controller, network, address, mode, tls)
        trusted = mode == MODE_TRUSTED
        client = VnfRestClient(
            network, address, "vnf-host", mode,
            truststore=None if mode == MODE_HTTP else pki.truststore,
            client_chain=[pki.client_cert] if trusted else None,
            client_key=pki.client_key if trusted else None, rng=rng)

        def exercise() -> None:
            for _ in range(EXCHANGES):
                assert client.summary()["switches"] == 1
            client.close()
        return exercise
    return build


def _ias(pki, rng) -> Callable[[], None]:
    deployment = Deployment(seed=SEED, vnf_count=1)
    quote = _quote(deployment)

    def exercise() -> None:  # one connection per quote, closed after it
        for _ in range(EXCHANGES):
            assert deployment.ias_client.verify_quote(
                quote, nonce="n").quote_status == "OK"
    return exercise


def _pooled_ias(pki, rng) -> Callable[[], None]:
    deployment = Deployment(seed=SEED, vnf_count=1)
    quote = _quote(deployment)
    client = deployment.pooled_ias_client()

    def exercise() -> None:
        for _ in range(EXCHANGES):
            assert client.verify_quote(quote, nonce="n").quote_status == "OK"
        client.close()
    return exercise


def _kms(pki, rng) -> Callable[[], None]:
    world = make_world()
    token = world.tokens["alpha"]
    world.service.store("alpha", token, "db", b"value")
    client = KmsClient(world.network, KMS_ADDRESS, "alpha", token,
                       "client.example.org")

    def exercise() -> None:
        for _ in range(EXCHANGES):
            assert client.fetch("db") == b"value"
        client.close()
    return exercise


def _host_agent(pki, rng) -> Callable[[], None]:
    deployment = Deployment(seed=SEED, vnf_count=1)
    address = deployment.agent_client.address

    def exercise() -> None:
        # The stub has no close(): its connection ends with the stub.
        client = HostAgentClient(deployment.network, address)
        for _ in range(EXCHANGES):
            assert client.attest_host(b"\x01" * 16, SEED).quote
    return exercise


def _fabric_replica(pki, rng) -> Callable[[], None]:
    deployment = Deployment(seed=SEED, vnf_count=1)
    fabric = deployment.build_fabric(replica_count=3)
    anchor = deployment.vm.ca.certificate.to_bytes()

    def exercise() -> None:  # manager to leader, leader to followers
        for number in range(EXCHANGES):
            fabric.anchor_ca(f"extra-anchor-{number}", anchor)
    return exercise


def _enclave(pki, rng) -> Callable[[], None]:
    client = _enrolled().enclave_client("vnf-1")

    def exercise() -> None:
        for _ in range(EXCHANGES):
            assert client.summary()["controller"] == "floodlight"
        client.close()
    return exercise


CLIENTS = {
    "vnf-rest-http": _northbound(MODE_HTTP),
    "vnf-rest-https": _northbound(MODE_HTTPS),
    "vnf-rest-trusted": _northbound(MODE_TRUSTED),
    "ias": _ias,
    "ias-pooled": _pooled_ias,
    "kms": _kms,
    "host-agent": _host_agent,
    "fabric-replica": _fabric_replica,
    "enclave": _enclave,
}


@pytest.mark.parametrize("build", list(CLIENTS.values()), ids=list(CLIENTS))
def test_closed_connections_leave_no_cyclic_garbage(build, pki, rng):
    exercise = build(pki, rng)
    with _collector_off():
        exercise()
        garbage = gc.collect()
    assert garbage == 0
