"""Chain building and validation, including intermediates and CRLs."""

import pytest

from repro.crypto.keys import generate_keypair
from repro.errors import (
    CertificateError,
    CertificateExpired,
    CertificateRevoked,
    UntrustedCertificate,
)
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import KEY_USAGE_CERT_SIGN, KEY_USAGE_CLIENT_AUTH
from repro.pki.chain import build_path, validate_chain
from repro.pki.name import DistinguishedName
from repro.pki.truststore import Truststore


def test_direct_chain_validates(pki):
    path = validate_chain(pki.client_cert, pki.truststore, now=10)
    assert [c.subject.common_name for c in path] == ["client", "Test-CA"]


def test_untrusted_leaf_rejected(pki, rng):
    rogue_ca = CertificateAuthority(DistinguishedName("Rogue"), rng=rng)
    rogue_cert = rogue_ca.issue(
        DistinguishedName("client"), pki.client_cert.public_key_bytes, now=0
    )
    with pytest.raises(UntrustedCertificate):
        validate_chain(rogue_cert, pki.truststore, now=10)


def test_expired_leaf_rejected(pki):
    with pytest.raises(CertificateExpired):
        validate_chain(pki.client_cert, pki.truststore,
                       now=pki.client_cert.not_after + 1)


def test_required_usage_enforced(pki):
    validate_chain(pki.client_cert, pki.truststore, now=10,
                   required_usage=KEY_USAGE_CLIENT_AUTH)
    with pytest.raises(CertificateError):
        validate_chain(pki.client_cert, pki.truststore, now=10,
                       required_usage="server-auth")


def test_crl_blocks_revoked_leaf(pki):
    pki.ca.revoke(pki.client_cert.serial, now=5)
    crl = pki.ca.current_crl(now=6)
    with pytest.raises(CertificateRevoked):
        validate_chain(pki.client_cert, pki.truststore, now=10, crl=crl)
    # The unrevoked server cert still passes with the same CRL.
    validate_chain(pki.server_cert, pki.truststore, now=10, crl=crl)


def test_crl_outside_its_window_refused(pki):
    crl = pki.ca.current_crl(now=6)
    for now in (6, crl.next_update - 1):
        validate_chain(pki.client_cert, pki.truststore, now=now, crl=crl)
    # Issued in the future, or past its next update: it may miss
    # revocations, so nothing validates against it.
    for now in (5, crl.next_update, crl.next_update + 1):
        with pytest.raises(CertificateError, match="stale CRL"):
            validate_chain(pki.client_cert, pki.truststore, now=now,
                           crl=crl)


def test_intermediate_chain(pki, rng):
    # Root -> intermediate CA -> leaf.
    intermediate_key = generate_keypair(rng)
    intermediate = pki.ca.issue(
        DistinguishedName("Intermediate-CA"),
        intermediate_key.public.to_bytes(),
        now=0, is_ca=True, key_usage=(KEY_USAGE_CERT_SIGN,),
    )
    leaf_key = generate_keypair(rng)
    from repro.pki.certificate import Certificate
    from dataclasses import replace

    unsigned = Certificate(
        serial=1000,
        subject=DistinguishedName("deep-leaf"),
        issuer=intermediate.subject,
        public_key_bytes=leaf_key.public.to_bytes(),
        not_before=0,
        not_after=1000,
        key_usage=(KEY_USAGE_CLIENT_AUTH,),
    )
    leaf = replace(unsigned,
                   signature=intermediate_key.sign(unsigned.tbs_bytes()))
    path = validate_chain(leaf, pki.truststore, now=10,
                          intermediates=[intermediate])
    assert len(path) == 3


def test_non_ca_intermediate_rejected(pki, rng):
    # A mere client certificate tries to act as an issuer.
    fake_issuer_key = generate_keypair(rng)
    fake_issuer = pki.ca.issue(
        DistinguishedName("not-a-ca"), fake_issuer_key.public.to_bytes(),
        now=0,
    )
    from repro.pki.certificate import Certificate
    from dataclasses import replace

    unsigned = Certificate(
        serial=2000,
        subject=DistinguishedName("victim"),
        issuer=fake_issuer.subject,
        public_key_bytes=pki.client_cert.public_key_bytes,
        not_before=0,
        not_after=1000,
    )
    leaf = replace(unsigned,
                   signature=fake_issuer_key.sign(unsigned.tbs_bytes()))
    with pytest.raises(CertificateError):
        validate_chain(leaf, pki.truststore, now=10,
                       intermediates=[fake_issuer])


def test_build_path_no_loop(pki, rng):
    # Self-referencing orphan must not loop forever.
    key = generate_keypair(rng)
    from repro.pki.certificate import Certificate
    from dataclasses import replace

    unsigned = Certificate(
        serial=1,
        subject=DistinguishedName("orphan"),
        issuer=DistinguishedName("orphan"),
        public_key_bytes=key.public.to_bytes(),
        not_before=0,
        not_after=10,
    )
    orphan = replace(unsigned, signature=key.sign(unsigned.tbs_bytes()))
    with pytest.raises(UntrustedCertificate):
        build_path(orphan, [orphan], Truststore())
