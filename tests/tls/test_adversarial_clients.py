"""Adversarial handshakes: proof-of-possession enforcement.

A client certificate is only as good as the CertificateVerify proving the
sender holds its key.  These tests send (a) a garbage proof and (b) no
proof at all, and require the server to refuse both — otherwise anyone who
*saw* a certificate could impersonate its subject.
"""

import pytest

from repro.errors import TlsAlert
from repro.tls import TlsClient, TlsConfig
from repro.tls import handshake as hs

from tests.tls.conftest import make_world


def test_garbage_certificate_verify_rejected(network, pki, rng,
                                             client_config, monkeypatch):
    world = make_world(network, pki, rng, require_client_auth=True,
                       port=2001)
    # The client presents the genuine certificate but signs the transcript
    # with the wrong key (it does not actually hold the certified key).
    from repro.crypto.keys import generate_keypair

    wrong_key = generate_keypair(rng)
    evil_config = TlsConfig(
        certificate_chain=[pki.client_cert],  # genuine, observed cert
        private_key=pki.client_key,           # passes local sanity check
        truststore=pki.truststore,
        rng=rng,
    )
    client = TlsClient(evil_config)
    # Swap the signing key after config validation: the CertificateVerify
    # will be made with a key that does not match the certificate.
    object.__setattr__(evil_config.private_key, "scalar", wrong_key.scalar)
    with pytest.raises(TlsAlert) as excinfo:
        world.connect(client)
    from repro.tls import alerts

    assert excinfo.value.description in (alerts.DECRYPT_ERROR,
                                         alerts.ACCESS_DENIED)


def test_omitted_certificate_verify_rejected(network, pki, rng,
                                             client_config, monkeypatch):
    world = make_world(network, pki, rng, require_client_auth=True,
                       port=2002)

    # Make the client silently omit its CertificateVerify message: both
    # sides' transcripts stay consistent, so only the server's explicit
    # "certificate without proof" check can catch it.
    class VanishingCertificateVerify(hs.CertificateVerify):
        def encode(self):  # noqa: D102 — adversarial stub
            return b""

    monkeypatch.setattr(hs, "CertificateVerify", VanishingCertificateVerify)
    import repro.tls.client as client_module

    monkeypatch.setattr(client_module.hs, "CertificateVerify",
                        VanishingCertificateVerify)
    client = TlsClient(client_config)
    with pytest.raises(TlsAlert) as excinfo:
        world.connect(client)
    from repro.tls import alerts

    assert excinfo.value.description == alerts.ACCESS_DENIED


def test_certificate_substitution_rejected(network, pki, rng, monkeypatch):
    # A MITM swaps the client's Certificate message for its own cert while
    # leaving everything else alone: CertificateVerify (signed over the
    # transcript containing the swapped cert... the attacker cannot forge
    # that signature, so we model the lazier attack of swapping both the
    # cert and using its own key — which fails chain validation).
    world = make_world(network, pki, rng, require_client_auth=True,
                       port=2003)
    from repro.crypto.keys import generate_keypair
    from repro.pki.ca import CertificateAuthority
    from repro.pki.csr import create_csr
    from repro.pki.name import DistinguishedName

    mitm_ca = CertificateAuthority(DistinguishedName("MITM-CA"), rng=rng)
    mitm_key = generate_keypair(rng)
    mitm_cert = mitm_ca.issue_from_csr(
        create_csr(mitm_key, DistinguishedName("client")), now=0
    )
    client = TlsClient(TlsConfig(
        certificate_chain=[mitm_cert],
        private_key=mitm_key,
        truststore=pki.truststore,
        rng=rng,
    ))
    with pytest.raises(TlsAlert) as excinfo:
        world.connect(client)
    from repro.tls import alerts

    assert excinfo.value.description == alerts.BAD_CERTIFICATE
