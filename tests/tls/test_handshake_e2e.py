"""End-to-end handshakes: full, mutual, resumed, and failure modes."""

import pytest

from repro.errors import HandshakeFailure, TlsAlert, TlsError
from repro.pki.ca import CertificateAuthority
from repro.pki.csr import create_csr
from repro.pki.name import DistinguishedName
from repro.crypto.keys import generate_keypair
from repro.tls import TlsClient, TlsConfig

from tests.tls.conftest import make_world


def test_full_handshake_and_data(world, client_config):
    client = TlsClient(client_config)
    conn = world.connect(client)
    assert not conn.resumed
    assert conn.peer_certificate.subject.common_name == "server"
    conn.send(b"hello")
    assert conn.recv_available() == b"HELLO"


def test_anonymous_client_ok_without_client_auth(world, pki, rng):
    client = TlsClient(TlsConfig(truststore=pki.truststore, rng=rng))
    conn = world.connect(client)
    conn.send(b"anon")
    assert conn.recv_available() == b"ANON"


def test_mutual_auth_presents_client_cert(mutual_world, client_config):
    client = TlsClient(client_config)
    conn = mutual_world.connect(client)
    conn.send(b"x")
    assert conn.recv_available() == b"X"


def test_mutual_auth_rejects_anonymous(mutual_world, pki, rng):
    client = TlsClient(TlsConfig(truststore=pki.truststore, rng=rng))
    with pytest.raises((HandshakeFailure, TlsAlert)):
        mutual_world.connect(client)


def test_mutual_auth_rejects_untrusted_client(mutual_world, rng, pki):
    rogue_ca = CertificateAuthority(DistinguishedName("Rogue"), rng=rng)
    rogue_key = generate_keypair(rng)
    rogue_cert = rogue_ca.issue_from_csr(
        create_csr(rogue_key, DistinguishedName("rogue-client")), now=0
    )
    client = TlsClient(TlsConfig(
        certificate_chain=[rogue_cert], private_key=rogue_key,
        truststore=pki.truststore, rng=rng,
    ))
    with pytest.raises(TlsAlert):
        mutual_world.connect(client)


def test_client_rejects_untrusted_server(network, rng, pki):
    # Server presents a certificate from a CA the client does not trust.
    rogue_ca = CertificateAuthority(DistinguishedName("Rogue"), rng=rng)
    rogue_key = generate_keypair(rng)
    rogue_cert = rogue_ca.issue_server_certificate(
        DistinguishedName("server"), rogue_key.public.to_bytes(), now=0
    )

    class FakePki:
        server_cert = rogue_cert
        server_key = rogue_key
        truststore = pki.truststore  # server side trusts the real CA
        client_cert = pki.client_cert
        client_key = pki.client_key

    world = make_world(network, FakePki, rng, port=444)
    client = TlsClient(TlsConfig(truststore=pki.truststore, rng=rng))
    from repro.errors import UntrustedCertificate

    with pytest.raises(UntrustedCertificate):
        world.connect(client)


def test_session_resumption(world, client_config):
    client = TlsClient(client_config)
    first = world.connect(client)
    first.send(b"a")
    assert first.recv_available() == b"A"
    second = world.connect(client)
    assert second.resumed
    second.send(b"b")
    assert second.recv_available() == b"B"
    assert second.session_id == first.session_id


def test_forget_session_forces_full_handshake(world, client_config):
    client = TlsClient(client_config)
    world.connect(client)
    client.forget_session("server")
    again = world.connect(client)
    assert not again.resumed


def test_distinct_servers_have_distinct_sessions(network, pki, rng,
                                                 client_config):
    world_a = make_world(network, pki, rng, port=1001)
    world_b = make_world(network, pki, rng, port=1002)
    client = TlsClient(client_config)
    conn_a = world_a.connect(client, name="a")
    conn_b = world_b.connect(client, name="b")
    assert conn_a.session_id != conn_b.session_id


def test_expired_server_cert_rejected(network, pki, rng, client_config):
    world = make_world(network, pki, rng, port=1003)
    network.clock.advance(pki.server_cert.not_after + 10)
    client = TlsClient(client_config)
    from repro.errors import CertificateExpired

    with pytest.raises(CertificateExpired):
        world.connect(client)


def test_client_requires_truststore(rng):
    with pytest.raises(TlsError):
        TlsClient(TlsConfig(rng=rng))


def test_large_transfer_fragments(world, client_config):
    client = TlsClient(client_config)
    conn = world.connect(client)
    blob = b"z" * 100_000  # crosses several 16 KiB records
    conn.send(blob)
    assert conn.recv_available() == blob.upper()


def test_close_notify(world, client_config):
    client = TlsClient(client_config)
    conn = world.connect(client)
    conn.close()
    assert conn.closed
    from repro.errors import ChannelClosed

    with pytest.raises(ChannelClosed):
        conn.send(b"after close")


def test_aes256_suite_negotiated_when_preferred(network, pki, rng,
                                                client_config):
    world = make_world(network, pki, rng, port=1004)
    client_config.cipher_suites = [0xC02C, 0xC02B]  # prefer AES-256-GCM
    client = TlsClient(client_config)
    conn = world.connect(client)
    assert "AES_256" in conn.suite_name
    conn.send(b"big keys")
    assert conn.recv_available() == b"BIG KEYS"


def test_no_common_suite_fails_cleanly(network, pki, rng, client_config):
    world = make_world(network, pki, rng, port=1005)
    client_config.cipher_suites = [0x1234]  # nothing the server knows
    client = TlsClient(client_config)
    with pytest.raises((TlsAlert, HandshakeFailure)):
        world.connect(client)
