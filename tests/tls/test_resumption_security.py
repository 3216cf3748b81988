"""Resumption must re-earn every authentication decision it reuses.

Regression suite for two bugs in the abbreviated-handshake path:

* a server with ``require_client_auth`` resumed sessions that were
  cached *without* a client certificate (auth bypass);
* the abbreviated path never consulted the CRL or the validity window
  at the current clock, so a certificate revoked or expired after
  caching kept resuming.
"""

import pytest

from repro.errors import HandshakeFailure, TlsAlert
from repro.tls import TlsClient, TlsConfig

from tests.tls.conftest import make_world


def _connect_full(world, client):
    conn = world.connect(client)
    assert not conn.resumed
    conn.send(b"hi")
    assert conn.recv_available() == b"HI"
    return conn


class TestClientAuthResumptionBypass:
    """S1: no abbreviated handshake for sessions cached without a
    client certificate once client auth is required."""

    def test_anonymous_session_cannot_resume_into_client_auth(
            self, network, pki, rng):
        world = make_world(network, pki, rng)
        anon = TlsConfig(truststore=pki.truststore, rng=rng)
        client = TlsClient(anon)
        first = world.connect(client)
        assert not first.resumed

        # The operator turns on client auth; the cached anonymous
        # session must not carry over the old, weaker decision.
        world.server._config.require_client_auth = True
        with pytest.raises((HandshakeFailure, TlsAlert)):
            world.connect(client)

    def test_authenticated_session_still_resumes(self, network, pki, rng,
                                                 client_config):
        world = make_world(network, pki, rng, require_client_auth=True)
        client = TlsClient(client_config)
        first = world.connect(client)
        assert not first.resumed
        assert first.peer_certificate is not None
        second = world.connect(client)
        assert second.resumed


class TestRevokedOrExpiredResumption:
    """S2: the abbreviated path rechecks CRL and validity window."""

    def test_revocation_after_caching_blocks_resumption(
            self, network, pki, rng, client_config):
        world = make_world(network, pki, rng, require_client_auth=True)
        client = TlsClient(client_config)
        _connect_full(world, client)
        assert len(world.server._config.session_cache) == 1

        now = int(network.clock.now_seconds())
        pki.ca.revoke(pki.client_cert.serial, now=now)
        world.server._config.crl = pki.ca.current_crl(now)
        # Not resumed, and the forced full handshake rejects the now-
        # revoked certificate outright.
        with pytest.raises(TlsAlert):
            world.connect(client)
        # The stale session was also evicted, not merely skipped.
        assert len(world.server._config.session_cache) == 0

    def test_expiry_after_caching_blocks_resumption(self, network, pki,
                                                    rng):
        from repro.pki.csr import create_csr
        from repro.pki.name import DistinguishedName
        from repro.crypto.keys import generate_keypair

        # A client certificate that expires long before the server's.
        short_key = generate_keypair(rng)
        short_cert = pki.ca.issue_from_csr(
            create_csr(short_key, DistinguishedName("short-lived")),
            now=0, validity=3600,
        )
        world = make_world(network, pki, rng, require_client_auth=True)
        client = TlsClient(TlsConfig(
            certificate_chain=[short_cert], private_key=short_key,
            truststore=pki.truststore, rng=rng,
        ))
        _connect_full(world, client)
        assert len(world.server._config.session_cache) == 1

        # Advance simulated time beyond the client certificate's window:
        # no resumption, and the forced full handshake rejects the
        # expired certificate.
        network.clock.advance(3601.0)
        with pytest.raises(TlsAlert):
            world.connect(client)
        assert len(world.server._config.session_cache) == 0

    def test_stale_crl_forces_a_full_handshake(self, network, pki, rng,
                                               client_config):
        world = make_world(network, pki, rng, require_client_auth=True)
        now = int(network.clock.now_seconds())
        crl = world.server._config.crl = pki.ca.current_crl(now)
        client = TlsClient(client_config)
        _connect_full(world, client)

        # Past the CRL's next update nothing resumes, and the full
        # handshake refuses on the stale CRL; the session is not stale
        # and stays cached.
        network.clock.advance(float(crl.next_update - now))
        with pytest.raises(TlsAlert, match="stale CRL"):
            world.connect(client)
        assert len(world.server._config.session_cache) == 1
        world.server._config.crl = pki.ca.current_crl(
            int(network.clock.now_seconds()))
        assert world.connect(client).resumed

    def test_unexpired_unrevoked_session_resumes(self, network, pki, rng,
                                                 client_config):
        world = make_world(network, pki, rng, require_client_auth=True)
        client = TlsClient(client_config)
        _connect_full(world, client)
        assert world.connect(client).resumed


class TestResumptionValidatorHook:
    """The application-level gate (RA-TLS revocation plugs in here)."""

    def test_denying_validator_forces_full_handshake(self, network, pki,
                                                     rng, client_config):
        world = make_world(network, pki, rng, require_client_auth=True)
        world.server._config.resumption_validator = lambda session: False
        client = TlsClient(client_config)
        _connect_full(world, client)
        cache = world.server._config.session_cache
        first_ids = {s.session_id for s in cache._sessions.values()}
        second = world.connect(client)
        assert not second.resumed          # degraded, not refused
        second.send(b"ok")
        assert second.recv_available() == b"OK"
        # The denied session was evicted (the completed full handshake
        # cached a fresh one); the old id cannot be retried.
        assert all(cache.lookup(sid) is None for sid in first_ids)

    def test_allowing_validator_keeps_resumption(self, network, pki, rng,
                                                 client_config):
        world = make_world(network, pki, rng, require_client_auth=True)
        seen = []
        world.server._config.resumption_validator = (
            lambda session: seen.append(session) or True
        )
        client = TlsClient(client_config)
        _connect_full(world, client)
        assert world.connect(client).resumed
        assert len(seen) == 1
        assert seen[0].peer_certificate.subject.common_name == "client"
