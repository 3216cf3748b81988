"""Certificate revocation lists.

The Verification Manager revokes a VNF's credentials when the platform it
runs on stops being trustworthy; the controller consults the CRL during
trusted-HTTPS client authentication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.crypto.keys import EcPrivateKey, EcPublicKey
from repro.errors import CertificateRevoked, EncodingError
from repro.pki import der
from repro.pki.name import DistinguishedName

REASON_UNSPECIFIED = "unspecified"
REASON_KEY_COMPROMISE = "key-compromise"
REASON_PLATFORM_UNTRUSTED = "platform-untrusted"
REASON_SUPERSEDED = "superseded"
REASON_CESSATION = "cessation-of-operation"


@dataclass(frozen=True)
class RevokedEntry:
    """One revoked certificate: serial, time of revocation, and reason."""

    serial: int
    revoked_at: int
    reason: str = REASON_UNSPECIFIED


@dataclass(frozen=True)
class CertificateRevocationList:
    """A signed list of revoked serials from one issuer."""

    issuer: DistinguishedName
    issued_at: int
    next_update: int
    entries: Tuple[RevokedEntry, ...] = ()
    signature: bytes = b""

    def _tbs_list(self) -> list:
        return [
            self.issuer.to_list(),
            self.issued_at,
            self.next_update,
            [[e.serial, e.revoked_at, e.reason] for e in self.entries],
        ]

    def tbs_bytes(self) -> bytes:
        """Canonical encoding of the signed portion."""
        return der.encode(self._tbs_list())

    def to_bytes(self) -> bytes:
        """Full encoded CRL."""
        return der.encode([self._tbs_list(), self.signature])

    @classmethod
    def from_bytes(cls, data: bytes) -> "CertificateRevocationList":
        """Parse an encoded CRL."""
        decoded = der.decode(data)
        if not (isinstance(decoded, list) and len(decoded) == 2):
            raise EncodingError("malformed CRL envelope")
        tbs, signature = decoded
        if not (isinstance(tbs, list) and len(tbs) == 4):
            raise EncodingError("malformed CRL body")
        issuer, issued_at, next_update, raw_entries = tbs
        entries = tuple(
            RevokedEntry(serial=e[0], revoked_at=e[1], reason=e[2])
            for e in raw_entries
        )
        return cls(
            issuer=DistinguishedName.from_list(issuer),
            issued_at=issued_at,
            next_update=next_update,
            entries=entries,
            signature=signature,
        )

    def verify_signature(self, issuer_key: EcPublicKey) -> None:
        """Verify the issuer's signature over the CRL body."""
        issuer_key.verify(self.tbs_bytes(), self.signature)

    def is_revoked(self, serial: int) -> bool:
        """True if ``serial`` appears on the list."""
        return any(entry.serial == serial for entry in self.entries)

    def check(self, serial: int) -> None:
        """Raise :class:`CertificateRevoked` if ``serial`` is revoked."""
        for entry in self.entries:
            if entry.serial == serial:
                raise CertificateRevoked(
                    f"serial {serial} revoked at {entry.revoked_at}"
                    f" ({entry.reason})"
                )


def sign_crl(key: EcPrivateKey, issuer: DistinguishedName, issued_at: int,
             next_update: int,
             entries: Iterable[RevokedEntry]) -> CertificateRevocationList:
    """Build and sign a CRL."""
    unsigned = CertificateRevocationList(
        issuer=issuer,
        issued_at=issued_at,
        next_update=next_update,
        entries=tuple(entries),
    )
    return CertificateRevocationList(
        issuer=issuer,
        issued_at=issued_at,
        next_update=next_update,
        entries=unsigned.entries,
        signature=key.sign(unsigned.tbs_bytes()),
    )
