"""HMAC-DRBG: determinism, seeding, range sampling."""

import pytest

from repro.crypto.rng import HmacDrbg
from repro.errors import EntropyError


def test_same_seed_same_stream():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    assert a.random_bytes(64) == b.random_bytes(64)
    assert a.random_bytes(10) == b.random_bytes(10)


def test_different_seeds_differ():
    assert HmacDrbg(b"s1").random_bytes(32) != HmacDrbg(b"s2").random_bytes(32)


def test_personalization_separates():
    assert (HmacDrbg(b"s", b"p1").random_bytes(32)
            != HmacDrbg(b"s", b"p2").random_bytes(32))


def test_empty_seed_rejected():
    with pytest.raises(EntropyError):
        HmacDrbg(b"")


def test_reseed_changes_stream():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    a.random_bytes(16)
    b.random_bytes(16)
    a.reseed(b"fresh entropy")
    assert a.random_bytes(16) != b.random_bytes(16)


def test_reseed_requires_entropy():
    with pytest.raises(EntropyError):
        HmacDrbg(b"seed").reseed(b"")


def test_random_int_in_range():
    rng = HmacDrbg(b"seed")
    for upper in (1, 2, 7, 100, 1 << 62):
        for _ in range(30):
            assert 0 <= rng.random_int(upper) < upper


def test_random_int_rejects_nonpositive():
    rng = HmacDrbg(b"seed")
    with pytest.raises(EntropyError):
        rng.random_int(0)


def test_random_scalar_never_zero():
    rng = HmacDrbg(b"seed")
    for _ in range(50):
        assert 1 <= rng.random_scalar(97) < 97


def test_random_int_covers_small_range():
    rng = HmacDrbg(b"seed")
    seen = {rng.random_int(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_negative_length_rejected():
    with pytest.raises(EntropyError):
        HmacDrbg(b"seed").random_bytes(-1)
