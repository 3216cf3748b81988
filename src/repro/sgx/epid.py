"""A simulated EPID group-signature scheme.

Real EPID lets a member sign anonymously on behalf of a group, with
per-basename linkability (pseudonyms) and two revocation mechanisms
(private-key and signature based).  This model reproduces those
*semantics* with symmetric primitives:

- Each member holds ``member_secret`` derived by the group manager.
- A signature carries a fresh-nonce encryption of the member id readable
  only by the manager (unlinkability to everyone else), a ``pseudonym``
  ``HMAC(member_secret, basename)`` (per-basename linkability, the hook
  signature-based revocation needs), and a tag binding the message.
- Verification is manager-only — which matches the paper's deployment,
  where quotes are verified by the Intel Attestation Service, never by
  third parties directly.

The substitution is documented in DESIGN.md; every protocol above this
module only needs exactly the properties listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.crypto.constant_time import ct_bytes_eq
from repro.crypto.gcm import AesGcm
from repro.crypto.hkdf import hkdf
from repro.crypto.hmac import hmac_sha256
from repro.crypto.rng import HmacDrbg
from repro.errors import CryptoError, InvalidTag, QuoteError
from repro.pki import der


@dataclass(frozen=True)
class EpidMemberKey:
    """A member's private key material (lives inside the quoting enclave)."""

    group_id: bytes
    member_id: bytes
    member_secret: bytes


@dataclass(frozen=True)
class EpidSignature:
    """One group signature."""

    group_id: bytes
    basename: bytes
    pseudonym: bytes
    sealed_member: bytes  # member id, encrypted to the group manager
    nonce: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Serialized signature."""
        return der.encode([
            self.group_id, self.basename, self.pseudonym,
            self.sealed_member, self.nonce, self.tag,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "EpidSignature":
        """Parse a serialized signature."""
        group_id, basename, pseudonym, sealed_member, nonce, tag = (
            der.decode(data)
        )
        return cls(group_id, basename, pseudonym, sealed_member, nonce, tag)


class EpidGroup:
    """The group manager's view: issues member keys, verifies signatures.

    Instantiated inside the IAS model.
    """

    def __init__(self, group_id: bytes, master_secret: bytes) -> None:
        if len(master_secret) < 16:
            raise CryptoError("EPID master secret too short")
        self.group_id = group_id
        self._master = master_secret
        self._sealing_key = hkdf(master_secret, b"", b"epid-seal" + group_id, 16)
        # One AEAD for every signature this manager opens: the key never
        # changes, and AesGcm keeps no per-call state.
        self._sealing_aead = AesGcm(self._sealing_key)

    # ------------------------------------------------------------ issuance

    def derive_member_secret(self, member_id: bytes) -> bytes:
        """The member secret for ``member_id`` (manager-side derivation)."""
        return hmac_sha256(self._master, b"member" + member_id)

    def issue_member(self, rng: HmacDrbg) -> EpidMemberKey:
        """Provision a new member key (SGX's EPID provisioning protocol)."""
        member_id = rng.random_bytes(16)
        return EpidMemberKey(
            group_id=self.group_id,
            member_id=member_id,
            member_secret=self.derive_member_secret(member_id),
        )

    # ---------------------------------------------------------- verification

    def open_signature(self, signature: EpidSignature) -> bytes:
        """Recover the signing member's id (group manager privilege)."""
        try:
            return self._sealing_aead.decrypt(
                signature.nonce, signature.sealed_member, signature.group_id)
        except InvalidTag as exc:
            raise QuoteError("cannot open EPID signature") from exc

    def verify(self, signature: EpidSignature, message: bytes) -> bytes:
        """Verify a signature; returns the member id on success.

        Raises:
            QuoteError: on any verification failure.
        """
        if signature.group_id != self.group_id:
            raise QuoteError("signature from a different EPID group")
        member_id = self.open_signature(signature)
        member_secret = self.derive_member_secret(member_id)
        expected_pseudonym = pseudonym(member_secret, signature.basename)
        if not ct_bytes_eq(expected_pseudonym, signature.pseudonym):
            raise QuoteError("EPID pseudonym mismatch")
        expected_tag = _tag(member_secret, signature.basename, message)
        if not ct_bytes_eq(expected_tag, signature.tag):
            raise QuoteError("EPID signature tag mismatch")
        return member_id

    def sealing_key(self) -> bytes:
        """The member-id sealing key (needed by signers)."""
        return self._sealing_key


def pseudonym(member_secret: bytes, basename: bytes) -> bytes:
    """The per-basename pseudonym (linkable within one basename)."""
    return hmac_sha256(member_secret, b"pseudonym" + basename)


def _tag(member_secret: bytes, basename: bytes, message: bytes) -> bytes:
    return hmac_sha256(member_secret, b"tag" + basename + message)


def epid_sign(member: EpidMemberKey, sealing_key: Union[bytes, AesGcm],
              message: bytes, basename: bytes,
              rng: HmacDrbg) -> EpidSignature:
    """Produce a group signature over ``message``.

    ``sealing_key`` is distributed to members at provisioning time so
    they can encrypt their identity to the manager.  A holder that signs
    many quotes (the quoting enclave) passes the :class:`AesGcm` it
    built from the key once.
    """
    nonce = rng.random_bytes(12)
    aead = (sealing_key if isinstance(sealing_key, AesGcm)
            else AesGcm(sealing_key))
    sealed = aead.encrypt(nonce, member.member_id, member.group_id)
    return EpidSignature(
        group_id=member.group_id,
        basename=basename,
        pseudonym=pseudonym(member.member_secret, basename),
        sealed_member=sealed,
        nonce=nonce,
        tag=_tag(member.member_secret, basename, message),
    )
