"""The certificate authority embedded in the Verification Manager.

Section 3 of the paper: *"The Verification Manager acts as a certificate
authority, and signs all newly created client certificates.  The Floodlight
controller must only validate that the client certificate has a valid
signature from the trusted certificate authority."*

Thread-safety: serial allocation, the issued-certificate ledger, the
revocation list and the CRL cache are all guarded by one internal lock so
concurrent fleet enrollments (:mod:`repro.core.fleet`) can never observe a
torn counter or double-issue a serial.  For *deterministic* serial
assignment under a worker pool, callers may :meth:`reserve_serial` numbers
up front (in a well-defined order) and pass them to :meth:`issue` — the
pool then produces byte-identical certificates regardless of completion
order.  See ``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.sanitizer import make_rlock, shared_state
from repro.crypto.keys import EcPrivateKey, generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import CertificateError, RevocationError
from repro.pki.certificate import (
    Certificate,
    KEY_USAGE_CERT_SIGN,
    KEY_USAGE_CLIENT_AUTH,
    KEY_USAGE_CRL_SIGN,
    KEY_USAGE_SERVER_AUTH,
)
from repro.pki.crl import (
    CertificateRevocationList,
    REASON_UNSPECIFIED,
    RevokedEntry,
    sign_crl,
)
from repro.pki.csr import CertificateSigningRequest
from repro.pki.name import DistinguishedName

DEFAULT_VALIDITY = 365 * 24 * 3600  # one simulated year
#: Seconds from a CRL's issuance to its ``next_update``.
CRL_UPDATE_INTERVAL = 24 * 3600


@shared_state("_next_serial", "_issued", "_revoked", "_crl_cache")
class CertificateAuthority:
    """A self-signed root CA that issues and revokes end-entity certificates.

    Args:
        name: the CA's distinguished name.
        now: issuance time for the self-signed root certificate.
        rng: randomness source for key generation.
        validity: root-certificate lifetime in seconds.
    """

    def __init__(self, name: DistinguishedName, now: int = 0, *,
                 rng: HmacDrbg,
                 validity: int = 10 * DEFAULT_VALIDITY) -> None:
        self.name = name
        self._key: EcPrivateKey = generate_keypair(rng)
        self._next_serial = 1
        self._lock = make_rlock("ca")
        self._issued: Dict[int, Certificate] = {}
        self._revoked: List[RevokedEntry] = []
        # (now, revocation count) -> signed CRL.  One entry is enough:
        # callers re-request the *current* CRL far more often than time
        # advances or revocations land, and each signing is a full ECDSA
        # operation.
        self._crl_cache: Optional[Tuple[Tuple[int, int],
                                        CertificateRevocationList]] = None
        self.certificate = self._self_sign(now, validity)

    # ------------------------------------------------------------- internals

    def _allocate_serial(self) -> int:
        with self._lock:
            serial = self._next_serial
            self._next_serial += 1
            return serial

    def reserve_serial(self) -> int:
        """Atomically reserve the next serial number for a later issuance.

        A fleet scheduler reserves serials for every submitted VNF *in
        submission order* before dispatching workers, then passes each
        reservation to :meth:`issue` — so the certificate a VNF receives
        is independent of worker interleaving.
        """
        return self._allocate_serial()

    def _self_sign(self, now: int, validity: int) -> Certificate:
        unsigned = Certificate(
            serial=self._allocate_serial(),
            subject=self.name,
            issuer=self.name,
            public_key_bytes=self._key.public.to_bytes(),
            not_before=now,
            not_after=now + validity,
            is_ca=True,
            key_usage=(KEY_USAGE_CERT_SIGN, KEY_USAGE_CRL_SIGN),
        )
        cert = replace(unsigned, signature=self._key.sign(unsigned.tbs_bytes()))
        self._issued[cert.serial] = cert
        return cert

    # ------------------------------------------------------------- issuance

    def issue(self, subject: DistinguishedName, public_key_bytes: bytes,
              now: int, validity: int = DEFAULT_VALIDITY,
              key_usage: Tuple[str, ...] = (KEY_USAGE_CLIENT_AUTH,),
              san: Tuple[str, ...] = (), is_ca: bool = False,
              serial: Optional[int] = None) -> Certificate:
        """Issue a certificate over an externally supplied public key.

        This is the paper's main path: the VM generates the key pair itself
        and provisions both halves into the enclave (Fig. 1 step 5).

        Args:
            serial: a number previously returned by :meth:`reserve_serial`;
                ``None`` (the default) allocates the next one.  Issuing the
                same serial twice raises :class:`CertificateError`.
        """
        if serial is None:
            serial = self._allocate_serial()
        unsigned = Certificate(
            serial=serial,
            subject=subject,
            issuer=self.name,
            public_key_bytes=public_key_bytes,
            not_before=now,
            not_after=now + validity,
            is_ca=is_ca,
            key_usage=key_usage,
            san=san,
        )
        cert = replace(unsigned, signature=self._key.sign(unsigned.tbs_bytes()))
        with self._lock:
            if cert.serial in self._issued:
                raise CertificateError(
                    f"serial {cert.serial} already issued (double issuance)"
                )
            self._issued[cert.serial] = cert
        return cert

    def issue_from_csr(self, csr: CertificateSigningRequest, now: int,
                       validity: int = DEFAULT_VALIDITY,
                       key_usage: Tuple[str, ...] = (KEY_USAGE_CLIENT_AUTH,),
                       serial: Optional[int] = None) -> Certificate:
        """Issue from a CSR after checking proof of possession.

        This is the enclave-generated-key variant: the private key never
        exists outside the enclave at all.
        """
        csr.verify_proof_of_possession()
        return self.issue(
            subject=csr.subject,
            public_key_bytes=csr.public_key_bytes,
            now=now,
            validity=validity,
            key_usage=key_usage,
            san=csr.san,
            serial=serial,
        )

    def issue_server_certificate(self, subject: DistinguishedName,
                                 public_key_bytes: bytes, now: int,
                                 validity: int = DEFAULT_VALIDITY,
                                 san: Tuple[str, ...] = ()) -> Certificate:
        """Issue a server-auth certificate (used by the controller's HTTPS)."""
        return self.issue(
            subject=subject,
            public_key_bytes=public_key_bytes,
            now=now,
            validity=validity,
            key_usage=(KEY_USAGE_SERVER_AUTH,),
            san=san,
        )

    # ------------------------------------------------------------ revocation

    def revoke(self, serial: int, now: int,
               reason: str = REASON_UNSPECIFIED) -> None:
        """Mark an issued certificate as revoked."""
        with self._lock:
            if serial not in self._issued:
                raise RevocationError(
                    f"serial {serial} was not issued by this CA"
                )
            if serial == self.certificate.serial:
                raise RevocationError(
                    "refusing to revoke the root certificate"
                )
            if any(entry.serial == serial for entry in self._revoked):
                return  # already revoked: idempotent
            self._revoked.append(RevokedEntry(serial, now, reason))

    def current_crl(self, now: int) -> CertificateRevocationList:
        """The current signed CRL, valid for :data:`CRL_UPDATE_INTERVAL`.

        Re-signing is skipped when nothing observable changed since the
        last call (same issuance time, same revocation count) — every CRL
        subscriber push used to pay a fresh ECDSA signature for identical
        bytes.  CRL objects are immutable, so sharing the cached instance
        is safe.
        """
        with self._lock:
            key = (now, len(self._revoked))
            if self._crl_cache is not None and self._crl_cache[0] == key:
                return self._crl_cache[1]
            revoked = list(self._revoked)
        crl = sign_crl(
            self._key, self.name, now, now + CRL_UPDATE_INTERVAL, revoked
        )
        with self._lock:
            self._crl_cache = (key, crl)
        return crl

    # ------------------------------------------------------------- queries

    def is_issued(self, serial: int) -> bool:
        """Has a certificate with ``serial`` already been issued?

        Lets a retrying enrollment detect that its *reserved* serial was
        consumed by a previous attempt (which then failed downstream of
        issuance) and fall back to a fresh allocation instead of tripping
        the double-issuance guard.
        """
        with self._lock:
            return serial in self._issued

    def issued_certificate(self, serial: int) -> Certificate:
        """Look up a certificate this CA issued."""
        with self._lock:
            try:
                return self._issued[serial]
            except KeyError as exc:
                raise CertificateError(f"unknown serial {serial}") from exc

    @property
    def issued_count(self) -> int:
        """How many certificates (including the root) have been issued."""
        with self._lock:
            return len(self._issued)
