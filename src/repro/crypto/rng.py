"""HMAC-DRBG (NIST SP 800-90A) and the library's randomness policy.

Every component that needs randomness takes its DRBG from its caller;
there is no process-wide generator to fall back on.  A deployment seeds
one DRBG and hands it (or DRBGs derived from it) to everything it
builds, and tests construct their own from a fixed seed, so equal seeds
give byte-identical end-to-end runs — a property the benchmark harness
relies on.
"""

from __future__ import annotations

from repro.analysis.sanitizer import make_lock
from repro.crypto.hmac import hmac_sha256
from repro.errors import EntropyError

_RESEED_INTERVAL = 1 << 32


class HmacDrbg:
    """Deterministic random bit generator per SP 800-90A (HMAC variant).

    Args:
        seed: entropy input; any length (tests use short fixed strings).
        personalization: optional domain-separation string.
    """

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        if not seed:
            raise EntropyError("HMAC-DRBG requires a non-empty seed")
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._reseed_counter = 1
        self._lock = make_lock("rng")
        self._update(seed + personalization)

    def _update(self, provided: bytes) -> None:
        self._key = hmac_sha256(self._key, self._value + b"\x00" + provided)
        self._value = hmac_sha256(self._key, self._value)
        if provided:
            self._key = hmac_sha256(self._key, self._value + b"\x01" + provided)
            self._value = hmac_sha256(self._key, self._value)

    def reseed(self, entropy: bytes) -> None:
        """Mix fresh entropy into the generator state."""
        if not entropy:
            raise EntropyError("reseed requires non-empty entropy")
        with self._lock:
            self._update(entropy)
            self._reseed_counter = 1

    def random_bytes(self, length: int) -> bytes:
        """Generate ``length`` pseudorandom bytes."""
        if length < 0:
            raise EntropyError("negative length")
        with self._lock:
            if self._reseed_counter > _RESEED_INTERVAL:
                raise EntropyError("DRBG reseed interval exceeded")
            out = b""
            while len(out) < length:
                self._value = hmac_sha256(self._key, self._value)
                out += self._value
            self._update(b"")
            self._reseed_counter += 1
        return out[:length]

    def random_int(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)`` via rejection sampling."""
        if upper <= 0:
            raise EntropyError("upper bound must be positive")
        n_bytes = (upper.bit_length() + 7) // 8
        while True:
            candidate = int.from_bytes(self.random_bytes(n_bytes), "big")
            # Trim excess high bits, then reject out-of-range values.
            candidate >>= max(0, n_bytes * 8 - upper.bit_length())
            if candidate < upper:
                return candidate

    def random_scalar(self, order: int) -> int:
        """Uniform integer in ``[1, order)`` — an EC private scalar."""
        return 1 + self.random_int(order - 1)
