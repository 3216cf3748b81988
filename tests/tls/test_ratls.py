"""RA-TLS certificates and the handshake-time quote verifier."""

import pytest

from repro.crypto.keys import generate_keypair
from repro.errors import RatlsError, AttestationFailed, TlsAlert
from repro.net.clock import VirtualClock
from repro.sgx.quote import Quote
from repro.tls import TlsClient, TlsConfig
from repro.tls.ratls import (
    EXT_SGX_QUOTE,
    RATLS_ORG,
    RatlsVerifier,
    build_ratls_certificate,
    quote_from_certificate,
    ratls_report_data,
)
from repro.pki.certificate import Certificate

from tests.tls.conftest import make_world

MRENCLAVE = b"\x11" * 32
MRSIGNER = b"\x22" * 32


def make_quote(report_data: bytes) -> Quote:
    return Quote(mrenclave=MRENCLAVE, mrsigner=MRSIGNER, isv_prod_id=1,
                 isv_svn=1, report_data=report_data, qe_svn=1,
                 basename=b"\x00" * 32, epid_signature=b"sig")


def make_cert(rng, name="vnf-ratls", san=("host-1",), now=0,
              validity=3600, report_data=None):
    key = generate_keypair(rng)
    data = (report_data if report_data is not None
            else ratls_report_data(key.public.to_bytes()))
    cert = build_ratls_certificate(
        key, name, make_quote(data).to_bytes(), now=now,
        validity_seconds=validity, san=san,
    )
    return key, cert


def make_verifier(clock=None, fail_evidence=False, fail_identity=False):
    calls = {"evidence": [], "identity": []}

    def verify_evidence(quote, subject):
        calls["evidence"].append(subject)
        if fail_evidence:
            raise AttestationFailed("IAS says no")

    def check_identity(quote, subject):
        calls["identity"].append(subject)
        if fail_identity:
            raise AttestationFailed("wrong MRENCLAVE")

    return RatlsVerifier(verify_evidence, check_identity,
                         clock or VirtualClock()), calls


class TestCertificate:
    def test_roundtrip_carries_quote(self, rng):
        key, cert = make_cert(rng)
        assert cert.is_self_signed()
        assert cert.subject.organization == RATLS_ORG
        cert.verify_signature(cert.public_key)
        quote = quote_from_certificate(cert)
        assert quote.mrenclave == MRENCLAVE
        assert quote.report_data == ratls_report_data(
            key.public.to_bytes()
        )

    def test_wire_roundtrip_preserves_extension(self, rng):
        _, cert = make_cert(rng)
        parsed = Certificate.from_bytes(cert.to_bytes())
        assert parsed == cert
        assert parsed.extension(EXT_SGX_QUOTE) is not None

    def test_missing_extension_rejected(self, rng, pki):
        with pytest.raises(RatlsError, match="no sgx-quote"):
            quote_from_certificate(pki.client_cert)

    def test_malformed_quote_rejected(self, rng):
        key = generate_keypair(rng)
        cert = build_ratls_certificate(key, "x", b"not-a-quote", now=0,
                                       validity_seconds=10)
        with pytest.raises(RatlsError, match="malformed"):
            quote_from_certificate(cert)

    def test_report_data_is_64_bytes_and_domain_separated(self, rng):
        key = generate_keypair(rng)
        data = ratls_report_data(key.public.to_bytes())
        assert len(data) == 64
        from repro.core.provisioning import binding_hash

        # An enrollment-protocol binding over the same key must differ
        # (for any nonce): quotes cannot be replayed across the flows.
        assert data != binding_hash(key.public.to_bytes(), b"")


class TestVerifier:
    def test_accepts_well_formed_certificate(self, rng):
        verifier, calls = make_verifier()
        _, cert = make_cert(rng)
        verifier.validate(cert)
        assert verifier.validations == verifier.accepted == 1
        assert calls == {"evidence": ["vnf-ratls"],
                         "identity": ["vnf-ratls"]}
        assert verifier.knows_subject("vnf-ratls")

    def test_rejects_tampered_key_binding(self, rng):
        verifier, calls = make_verifier()
        _, cert = make_cert(rng, report_data=b"\x00" * 64)
        with pytest.raises(RatlsError, match="bind"):
            verifier.validate(cert)
        assert verifier.rejected == 1
        assert calls["evidence"] == []     # never reached IAS

    def test_rejects_ca_issued_certificate(self, rng, pki):
        verifier, _ = make_verifier()
        with pytest.raises(RatlsError, match="self-signed"):
            verifier.validate(pki.client_cert)

    def test_rejects_expired_certificate(self, rng):
        verifier, _ = make_verifier(clock=VirtualClock(5000))
        _, cert = make_cert(rng, validity=3600)
        with pytest.raises(Exception):
            verifier.validate(cert)

    def test_rejects_failed_attestation(self, rng):
        verifier, _ = make_verifier(fail_evidence=True)
        _, cert = make_cert(rng)
        with pytest.raises(RatlsError, match="attestation failed"):
            verifier.validate(cert)

    def test_rejects_failed_identity(self, rng):
        verifier, _ = make_verifier(fail_identity=True)
        _, cert = make_cert(rng)
        with pytest.raises(RatlsError, match="attestation failed"):
            verifier.validate(cert)

    def test_revoked_subject_rejected_before_attestation(self, rng):
        verifier, calls = make_verifier()
        _, cert = make_cert(rng)
        verifier.revoke_subject("vnf-ratls")
        with pytest.raises(RatlsError, match="revoked"):
            verifier.validate(cert)
        assert calls["evidence"] == []

    def test_revoked_host_rejects_every_subject_on_it(self, rng):
        verifier, _ = make_verifier()
        _, cert_a = make_cert(rng, name="vnf-a", san=("host-1",))
        _, cert_b = make_cert(rng, name="vnf-b", san=("host-2",))
        verifier.validate(cert_a)
        verifier.validate(cert_b)
        doomed = verifier.revoke_host("host-1")
        assert doomed == ["vnf-a"]
        with pytest.raises(RatlsError, match="revoked"):
            verifier.validate(cert_a)
        verifier.validate(cert_b)          # other host unaffected


class TestAttestedResumption:
    def _session(self, cert):
        from repro.tls.ciphersuites import SUPPORTED_SUITES
        from repro.tls.session import TlsSession

        suite = next(iter(SUPPORTED_SUITES.values()))
        return TlsSession(session_id=cert.subject.common_name.encode(),
                          master_secret=b"\x00" * 48, suite=suite,
                          peer_certificate=cert)

    def test_resumable_until_revoked(self, rng):
        verifier, _ = make_verifier()
        _, cert = make_cert(rng)
        session = self._session(cert)
        assert verifier.resumable(session)
        verifier.revoke_subject("vnf-ratls")
        assert not verifier.resumable(session)
        assert verifier.resumptions_denied == 1

    def test_host_revocation_denies_resumption(self, rng):
        verifier, _ = make_verifier()
        _, cert = make_cert(rng, san=("host-9",))
        session = self._session(cert)
        verifier.revoke_host("host-9")
        assert not verifier.resumable(session)

    def test_revocation_evicts_attached_session_caches(self, rng):
        from repro.tls.session import SessionCache

        verifier, _ = make_verifier()
        cache = SessionCache()
        verifier.attach_session_cache(cache)
        _, cert = make_cert(rng)
        cache.store(self._session(cert))
        assert len(cache) == 1
        verifier.revoke_subject("vnf-ratls")
        assert len(cache) == 0

    def test_registered_subject_covered_before_first_handshake(self, rng):
        verifier, _ = make_verifier()
        verifier.register_subject("vnf-early", ("host-3",))
        assert verifier.knows_subject("vnf-early")
        assert verifier.revoke_host("host-3") == ["vnf-early"]


class TestHandshakeIntegration:
    def test_full_handshake_with_ratls_client(self, network, pki, rng):
        verifier, calls = make_verifier(clock=network.clock)
        world = make_world(network, pki, rng, require_client_auth=True,
                           client_validator=verifier.validate)
        key, cert = make_cert(rng, name="vnf-hs")
        client = TlsClient(TlsConfig(
            certificate_chain=[cert], private_key=key,
            truststore=pki.truststore, rng=rng,
            now=network.clock.now_seconds,
        ))
        conn = world.connect(client)
        assert conn.peer_certificate.subject.common_name == "server"
        conn.send(b"attested")
        assert conn.recv_available() == b"ATTESTED"
        assert verifier.accepted == 1
        assert calls["evidence"] == ["vnf-hs"]

    def test_handshake_rejects_bad_binding(self, network, pki, rng):
        verifier, _ = make_verifier(clock=network.clock)
        world = make_world(network, pki, rng, require_client_auth=True,
                           client_validator=verifier.validate, port=445)
        key, cert = make_cert(rng, report_data=b"\xff" * 64)
        client = TlsClient(TlsConfig(
            certificate_chain=[cert], private_key=key,
            truststore=pki.truststore, rng=rng,
            now=network.clock.now_seconds,
        ))
        with pytest.raises(TlsAlert):
            world.connect(client)
        assert verifier.rejected == 1

    def test_revoked_identity_cannot_resume_or_reconnect(self, network,
                                                         pki, rng):
        verifier, _ = make_verifier(clock=network.clock)
        world = make_world(network, pki, rng, require_client_auth=True,
                           client_validator=verifier.validate, port=446)
        world.server._config.resumption_validator = verifier.resumable
        verifier.attach_session_cache(world.server._config.session_cache)
        key, cert = make_cert(rng, name="vnf-rev")
        client = TlsClient(TlsConfig(
            certificate_chain=[cert], private_key=key,
            truststore=pki.truststore, rng=rng,
            now=network.clock.now_seconds,
        ))
        first = world.connect(client)
        assert not first.resumed
        assert world.connect(client).resumed

        verifier.revoke_subject("vnf-rev")
        # Revocation evicted the cached session immediately; the
        # reconnect cannot resume and its full handshake is refused.
        assert len(world.server._config.session_cache) == 0
        with pytest.raises(TlsAlert):
            world.connect(client)
        assert verifier.rejected == 1
