"""Sealed storage: persisting secrets outside the enclave, safely.

EGETKEY(SEAL_KEY) derives an AES key from the platform's fuse key and the
enclave's identity — the full MRENCLAVE under MRENCLAVE policy, or the
(MRSIGNER, product id) pair under MRSIGNER policy, in both cases mixed with
the ISV SVN so that secrets sealed by version *n* stay unsealable by
version *n+1* but not vice versa.  The VNF credential enclave seals its
provisioned credentials across restarts (experiment E8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.gcm import AesGcm
from repro.crypto.hkdf import hkdf
from repro.crypto.rng import HmacDrbg
from repro.errors import CryptoError, SealingError
from repro.pki import der

POLICY_MRENCLAVE = "mrenclave"
POLICY_MRSIGNER = "mrsigner"


@dataclass(frozen=True)
class SealedBlob:
    """A sealed secret: policy + derivation inputs + AEAD ciphertext."""

    policy: str
    key_id: bytes
    isv_svn: int
    nonce: bytes
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        """Serialized blob (host-visible, safe to store anywhere)."""
        return der.encode([
            self.policy, self.key_id, self.isv_svn, self.nonce,
            self.ciphertext,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedBlob":
        """Parse a serialized blob."""
        policy, key_id, isv_svn, nonce, ciphertext = der.decode(data)
        if policy not in (POLICY_MRENCLAVE, POLICY_MRSIGNER):
            raise SealingError(f"unknown sealing policy {policy!r}")
        return cls(policy, key_id, isv_svn, nonce, ciphertext)


def _derive_seal_key(fuse_key: bytes, identity, policy: str, key_id: bytes,
                     svn: int) -> bytes:
    if policy == POLICY_MRENCLAVE:
        identity_bytes = identity.mrenclave
    elif policy == POLICY_MRSIGNER:
        identity_bytes = identity.mrsigner + identity.isv_prod_id.to_bytes(4, "big")
    else:
        raise SealingError(f"unknown sealing policy {policy!r}")
    info = b"seal-key|" + policy.encode() + b"|" + identity_bytes + svn.to_bytes(4, "big")
    return hkdf(fuse_key, key_id, info, 16)


def seal(fuse_key: bytes, identity, plaintext: bytes,
         policy: str = POLICY_MRENCLAVE, *,
         rng: HmacDrbg) -> SealedBlob:
    """Seal ``plaintext`` to the calling enclave's identity.

    Args:
        fuse_key: the platform's sealing fuse key (model of the hardware
            root key; only :class:`repro.sgx.platform.SgxPlatform` holds it).
        identity: the sealing enclave's identity.
        plaintext: secret bytes.
        policy: ``POLICY_MRENCLAVE`` or ``POLICY_MRSIGNER``.
        rng: draws the key id and the nonce.
    """
    key_id = rng.random_bytes(16)
    nonce = rng.random_bytes(12)
    key = _derive_seal_key(fuse_key, identity, policy, key_id,
                           identity.isv_svn)
    ciphertext = AesGcm(key).encrypt(nonce, plaintext, policy.encode())
    return SealedBlob(policy, key_id, identity.isv_svn, nonce, ciphertext)


def unseal(fuse_key: bytes, identity, blob: SealedBlob) -> bytes:
    """Unseal a blob; fails on the wrong platform, identity, or SVN rollback.

    Raises:
        SealingError: when the key cannot be derived (downgraded enclave)
            or authentication fails (wrong platform/identity/tamper).
    """
    if blob.isv_svn > identity.isv_svn:
        raise SealingError(
            f"blob sealed at SVN {blob.isv_svn} but enclave runs SVN "
            f"{identity.isv_svn} (anti-rollback)"
        )
    key = _derive_seal_key(fuse_key, identity, blob.policy, blob.key_id,
                           blob.isv_svn)
    try:
        return AesGcm(key).decrypt(blob.nonce, blob.ciphertext,
                                   blob.policy.encode())
    except CryptoError as exc:     # InvalidTag, or a host-mangled nonce
        raise SealingError(
            "unsealing failed: wrong platform, wrong enclave identity, "
            "or tampered blob"
        ) from exc
