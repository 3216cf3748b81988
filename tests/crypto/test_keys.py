"""Key objects: generation, serialization, sign/verify plumbing."""

import pytest

from repro.crypto.ec import P256
from repro.crypto.keys import (
    EcPrivateKey,
    EcPublicKey,
    from_scalar,
    generate_keypair,
)
from repro.errors import InvalidKey, InvalidSignature


def test_generate_produces_valid_pair(rng):
    key = generate_keypair(rng)
    assert 1 <= key.scalar < P256.n
    P256.validate_public(key.public.point)


def test_generation_is_deterministic_per_seed():
    from repro.crypto.rng import HmacDrbg

    a = generate_keypair(HmacDrbg(b"kseed"))
    b = generate_keypair(HmacDrbg(b"kseed"))
    assert a.scalar == b.scalar


def test_sign_verify(rng):
    key = generate_keypair(rng)
    signature = key.sign(b"payload")
    key.public.verify(b"payload", signature)
    with pytest.raises(InvalidSignature):
        key.public.verify(b"other", signature)


def test_public_key_bytes_roundtrip(rng):
    key = generate_keypair(rng)
    encoded = key.public.to_bytes()
    assert EcPublicKey.from_bytes(encoded).point == key.public.point


def test_private_key_bytes_roundtrip(rng):
    key = generate_keypair(rng)
    restored = EcPrivateKey.from_bytes(key.to_bytes())
    assert restored.scalar == key.scalar
    assert restored.public.point == key.public.point


def test_from_scalar_rejects_out_of_range():
    with pytest.raises(InvalidKey):
        from_scalar(0)
    with pytest.raises(InvalidKey):
        from_scalar(P256.n)


def test_fingerprint_is_stable_and_distinct(rng):
    a, b = generate_keypair(rng), generate_keypair(rng)
    assert a.public.fingerprint() == a.public.fingerprint()
    assert a.public.fingerprint() != b.public.fingerprint()
    assert len(a.public.fingerprint()) == 32
