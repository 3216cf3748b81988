"""Certificate-path building and validation."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import (
    CertificateError,
    UntrustedCertificate,
)
from repro.pki.certificate import Certificate, KEY_USAGE_CERT_SIGN
from repro.pki.crl import CertificateRevocationList
from repro.pki.truststore import Truststore

_MAX_PATH_LENGTH = 8


def build_path(leaf: Certificate, intermediates: Sequence[Certificate],
               truststore: Truststore) -> List[Certificate]:
    """Build a path from ``leaf`` to a trust anchor.

    Returns the chain ``[leaf, ..., anchor]``.  Raises
    :class:`UntrustedCertificate` when no anchor is reachable.
    """
    by_subject = {cert.subject: cert for cert in intermediates}
    path = [leaf]
    current = leaf
    for _ in range(_MAX_PATH_LENGTH):
        anchor = truststore.find(current.issuer)
        if anchor is not None:
            path.append(anchor)
            return path
        parent = by_subject.get(current.issuer)
        if parent is None or parent is current:
            break
        path.append(parent)
        current = parent
    raise UntrustedCertificate(
        f"no path from {leaf.subject} to a trust anchor"
    )


def validate_chain(leaf: Certificate, truststore: Truststore, now: int,
                   intermediates: Sequence[Certificate] = (),
                   crl: Optional[CertificateRevocationList] = None,
                   required_usage: Optional[str] = None) -> List[Certificate]:
    """Validate ``leaf`` against the truststore.

    Checks, in order: path construction, per-certificate validity windows,
    CA bits and cert-sign usage on issuing certificates, all signatures,
    revocation (if a CRL is supplied: its signature, that it is current
    at ``now``, and its entries), and the leaf's key usage.

    Returns the validated chain for inspection.
    """
    path = build_path(leaf, intermediates, truststore)

    for cert in path:
        cert.check_validity(now)

    # Every non-leaf certificate must be a CA allowed to sign certificates.
    for issuer_cert in path[1:]:
        if not issuer_cert.is_ca:
            raise CertificateError(
                f"{issuer_cert.subject} issued a certificate but is not a CA"
            )
        if not issuer_cert.allows_usage(KEY_USAGE_CERT_SIGN):
            raise CertificateError(
                f"{issuer_cert.subject} lacks the cert-sign usage"
            )

    # Signature chain: each certificate is signed by the next one up.
    for cert, issuer_cert in zip(path, path[1:]):
        cert.verify_signature(issuer_cert.public_key)
    # The anchor is trusted by fiat but self-signature is still checked for
    # self-signed roots, catching corrupted stores early.
    anchor = path[-1]
    if anchor.is_self_signed():
        anchor.verify_signature(anchor.public_key)

    if crl is not None:
        crl.verify_signature(_issuer_key(path, crl))
        # A CRL past its next update may miss later revocations.
        if not crl.is_current(now):
            raise CertificateError(
                f"stale CRL at {now}: issued {crl.issued_at}, "
                f"next update {crl.next_update}"
            )
        for cert in path[:-1]:
            crl.check(cert.serial)

    if required_usage is not None and not leaf.allows_usage(required_usage):
        raise CertificateError(
            f"{leaf.subject} does not allow usage {required_usage!r}"
        )
    return path


def _issuer_key(path: Sequence[Certificate], crl: CertificateRevocationList):
    """Find the public key of the CRL's issuer within the validated path."""
    for cert in path:
        if cert.subject == crl.issuer:
            return cert.public_key
    raise CertificateError(f"CRL issuer {crl.issuer} not in validated path")
