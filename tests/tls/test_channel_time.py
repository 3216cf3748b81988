"""TLS endpoints check certificate validity on their channel's clock.

``TlsConfig`` holds no time source: the client reads the time from the
channel it handshakes on when it checks the server's chain, and the
server does the same when it checks a client certificate.  So one
configuration follows whichever network it is used on, and a credential
enclave's client follows its host's clock through the channel the
``open_channel`` OCALL hands it.
"""

import pytest

from repro.core import Deployment
from repro.crypto.keys import generate_keypair
from repro.errors import CertificateExpired, TlsAlert
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.pki.csr import create_csr
from repro.pki.name import DistinguishedName
from repro.sdn.northbound import MODE_TRUSTED
from repro.tls import TlsClient, TlsConfig, alerts

from tests.tls.conftest import make_world


def _advance_past(clock, not_after):
    """Move ``clock`` into the second after ``not_after``; returns the
    whole second a handshake that follows reads."""
    clock.advance(not_after + 1.5 - clock.now())
    return not_after + 1


def test_one_client_config_follows_each_channels_clock(pki, rng):
    early, late = Network(VirtualClock()), Network(VirtualClock())
    checked_at = _advance_past(late.clock, pki.server_cert.not_after)
    client = TlsClient(TlsConfig(truststore=pki.truststore, rng=rng))

    conn = make_world(early, pki, rng).connect(client, name="early")
    conn.send(b"in time")
    assert conn.recv_available() == b"IN TIME"

    with pytest.raises(CertificateExpired, match=f"checked at {checked_at}$"):
        make_world(late, pki, rng).connect(client, name="late")


def test_server_refuses_a_client_certificate_past_its_window(network, pki,
                                                             rng,
                                                             client_config):
    short_key = generate_keypair(rng)
    short_cert = pki.ca.issue_from_csr(
        create_csr(short_key, DistinguishedName("short-lived")),
        now=0, validity=3600,
    )
    world = make_world(network, pki, rng, require_client_auth=True)

    def fresh_client():
        # No cached session to offer, so every connect is a full handshake.
        return TlsClient(TlsConfig(
            certificate_chain=[short_cert], private_key=short_key,
            truststore=pki.truststore, rng=rng,
        ))

    assert not world.connect(fresh_client()).resumed
    checked_at = _advance_past(network.clock, short_cert.not_after)
    with pytest.raises(TlsAlert, match=f"checked at {checked_at}$") as refused:
        world.connect(fresh_client())
    assert refused.value.description == alerts.BAD_CERTIFICATE
    # The same server, at the same time, still takes a certificate whose
    # window has not closed.
    assert world.connect(TlsClient(client_config)).peer_certificate


def test_enclave_client_checks_the_controller_on_the_deployment_clock():
    deployment = Deployment(seed=b"channel-time", vnf_count=1)
    vm, agent, host = deployment.vm, deployment.agent_client, deployment.host
    vm.attest_host(agent, host.name)
    vm.enroll_vnf(agent, host.name, "vnf-1",
                  str(deployment.controller_address(MODE_TRUSTED)))
    checked_at = _advance_past(deployment.clock,
                               deployment.server_cert.not_after)

    with pytest.raises(CertificateExpired,
                       match=f"checked at {checked_at}$") as expired:
        deployment.enclave_client("vnf-1").summary()
    assert "_connect_controller" in {entry.name
                                     for entry in expired.traceback}
