"""EC key-pair objects with serialization, shared by PKI, TLS, SGX and IAS."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ec import P256, Point, _Curve
from repro.crypto.ecdsa import (
    ecdsa_sign,
    ecdsa_verify,
    signature_from_bytes,
    signature_to_bytes,
)
from repro.crypto.rng import HmacDrbg
from repro.errors import InvalidKey


@dataclass(frozen=True)
class EcPublicKey:
    """A validated P-256 public key."""

    point: Point
    curve: _Curve = P256

    def __post_init__(self) -> None:
        self.curve.validate_public(self.point)

    def verify(self, message: bytes, signature: bytes) -> None:
        """Verify a fixed-width ``r || s`` signature over ``message``."""
        ecdsa_verify(
            self.point, message, signature_from_bytes(signature, self.curve),
            self.curve,
        )

    def to_bytes(self) -> bytes:
        """Uncompressed SEC1 encoding."""
        return self.curve.encode_point(self.point)

    @classmethod
    def from_bytes(cls, data: bytes, curve: _Curve = P256) -> "EcPublicKey":
        """Parse an uncompressed SEC1 point.

        The raw decode skips the on-curve check (``validate=False``)
        because the constructor's :meth:`~repro.crypto.ec._Curve.
        validate_public` performs the full validation anyway — previously
        the point was checked twice on every parse.  Malformed or
        off-curve input still raises :class:`~repro.errors.InvalidPoint`.
        """
        return cls(curve.decode_point(data, validate=False), curve)

    def fingerprint(self) -> bytes:
        """SHA-256 of the SEC1 encoding — a stable key identifier."""
        from repro.crypto.sha256 import sha256

        return sha256(self.to_bytes())


@dataclass(frozen=True)
class EcPrivateKey:
    """A P-256 private key with its public half."""

    scalar: int
    public: EcPublicKey
    curve: _Curve = P256

    def __post_init__(self) -> None:
        if not 1 <= self.scalar < self.curve.n:
            raise InvalidKey("private scalar out of range")

    def sign(self, message: bytes) -> bytes:
        """Deterministic ECDSA signature, fixed-width ``r || s``."""
        return signature_to_bytes(
            ecdsa_sign(self.scalar, message, self.curve), self.curve
        )

    def to_bytes(self) -> bytes:
        """Fixed-width big-endian scalar encoding."""
        return self.scalar.to_bytes(self.curve.coordinate_size, "big")

    @classmethod
    def from_bytes(cls, data: bytes, curve: _Curve = P256) -> "EcPrivateKey":
        """Rebuild a private key (and derive its public half) from bytes."""
        scalar = int.from_bytes(data, "big")
        return from_scalar(scalar, curve)


def from_scalar(scalar: int, curve: _Curve = P256) -> EcPrivateKey:
    """Build the key pair for a given private scalar."""
    point = curve.multiply_generator(scalar)
    if point is None:
        raise InvalidKey("scalar maps to the point at infinity")
    return EcPrivateKey(scalar, EcPublicKey(point, curve), curve)


def generate_keypair(rng: HmacDrbg, curve: _Curve = P256) -> EcPrivateKey:
    """Generate a fresh P-256 key pair from ``rng``."""
    return from_scalar(rng.random_scalar(curve.n), curve)
