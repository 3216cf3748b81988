"""HMAC-SHA256 (FIPS 198-1 / RFC 2104), built on :mod:`repro.crypto.sha256`."""

from __future__ import annotations

from repro.crypto.constant_time import ct_bytes_eq
from repro.crypto.sha256 import SHA256, BLOCK_SIZE, DIGEST_SIZE

# Byte-wise XOR with the inner and outer pad constants, as translate tables.
_IPAD = bytes(v ^ 0x36 for v in range(256))
_OPAD = bytes(v ^ 0x5C for v in range(256))


class HmacSha256:
    """Incremental HMAC-SHA256.

    Args:
        key: MAC key of any length; keys longer than the block size are
            hashed first, per the HMAC definition.
    """

    digest_size = DIGEST_SIZE

    def __init__(self, key: bytes, data: bytes = b"") -> None:
        if len(key) > BLOCK_SIZE:
            key = SHA256(key).digest()
        key = key.ljust(BLOCK_SIZE, b"\x00")
        self._outer_key = key.translate(_OPAD)
        self._inner = SHA256(key.translate(_IPAD))
        if data:
            self._inner.update(data)

    def update(self, data: bytes) -> None:
        """Absorb more message bytes."""
        self._inner.update(data)

    def digest(self) -> bytes:
        """The 32-byte MAC over everything absorbed so far."""
        outer = SHA256(self._outer_key)
        outer.update(self._inner.digest())
        return outer.digest()

    def hexdigest(self) -> str:
        """MAC as lowercase hex."""
        return self.digest().hex()

    def copy(self) -> "HmacSha256":
        """Independent copy of the running MAC state."""
        clone = HmacSha256.__new__(HmacSha256)
        clone._outer_key = self._outer_key
        clone._inner = self._inner.copy()
        return clone

    def verify(self, tag: bytes) -> bool:
        """Constant-time comparison of ``tag`` against the computed MAC."""
        return ct_bytes_eq(self.digest(), tag)


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-SHA256."""
    return HmacSha256(key, data).digest()
