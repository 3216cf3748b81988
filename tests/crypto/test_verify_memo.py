"""The memo of successful ECDSA verifications never changes a verdict.

``ecdsa_verify`` answers a verification that succeeded before on the
same key, message digest, ``r`` and ``s`` from the curve's memo instead
of running the dual ladder.  These tests pin that a hit needs all four
inputs to match, that a failure is never stored, that the memo stays
within its capacity with LRU eviction, and, as a hypothesis property,
that any mix of repeated and novel verifies agrees with
``ecdsa_verify_reference``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec
from repro.crypto.ec import P256
from repro.crypto.ecdsa import ecdsa_sign, ecdsa_verify, ecdsa_verify_reference
from repro.crypto.keys import from_scalar
from repro.errors import InvalidSignature

N = P256.n
KEY_A = from_scalar(0xA11CE)
KEY_B = from_scalar(0xB0B)


@pytest.fixture(autouse=True)
def _clean_memo():
    """Each test starts from an empty memo and zeroed counters."""
    P256.reset_verified_signatures()
    P256.stats.reset()
    yield
    P256.reset_verified_signatures()


def _accepts(verify, point, message, signature) -> bool:
    try:
        verify(point, message, signature)
    except InvalidSignature:
        return False
    return True


def _signed(key, message: bytes):
    return key.public.point, message, ecdsa_sign(key.scalar, message)


def test_repeat_verify_hits_the_memo_and_skips_the_ladder():
    point, message, signature = _signed(KEY_A, b"anchor")
    ecdsa_verify(point, message, signature)
    assert P256.stats.dual_mults == 1
    assert P256.stats.verify_memo_misses == 1
    for _ in range(3):
        ecdsa_verify(point, message, signature)
    assert P256.stats.verify_memo_hits == 3
    assert P256.stats.dual_mults == 1  # the ladder ran once
    assert P256.verify_memo_size == 1


def _variants():
    point, message, (r, s) = _signed(KEY_A, b"controller certificate")
    return {
        "different-s": (point, message, (r, s % (N - 1) + 1)),
        "malleated-twin": (point, message, (r, N - s)),
        "other-message": (point, b"controller certificatf", (r, s)),
        "other-key": (KEY_B.public.point, message, (r, s)),
    }


@pytest.mark.parametrize("variant", sorted(_variants()))
def test_hit_needs_all_four_inputs(variant):
    point, message, signature = _signed(KEY_A, b"controller certificate")
    ecdsa_verify(point, message, signature)
    size = P256.verify_memo_size
    other = _variants()[variant]
    expected = _accepts(ecdsa_verify_reference, *other)

    mults = P256.stats.dual_mults
    assert _accepts(ecdsa_verify, *other) == expected
    assert P256.stats.verify_memo_hits == 0
    assert P256.stats.dual_mults == mults + 1  # the ladder ran
    # Only the malleated twin is valid, and it is an entry of its own.
    assert expected == (variant == "malleated-twin")
    assert P256.verify_memo_size == size + int(expected)


def test_bad_signature_fails_every_call_and_is_never_stored():
    point, message, (r, s) = _signed(KEY_A, b"crl")
    bad = (r, s % (N - 1) + 1)
    for attempt in range(1, 4):
        with pytest.raises(InvalidSignature):
            ecdsa_verify(point, message, bad)
        assert P256.stats.verify_memo_misses == attempt
        assert P256.stats.dual_mults == attempt
    assert P256.stats.verify_memo_hits == 0
    assert P256.verify_memo_size == 0


def test_memo_is_bounded_and_keeps_touched_entries(monkeypatch):
    monkeypatch.setattr(ec, "VERIFY_MEMO_CAPACITY", 4)
    cases = [_signed(KEY_A, b"entry-%d" % i) for i in range(6)]
    for case in cases[:4]:
        ecdsa_verify(*case)
    ecdsa_verify(*cases[0])  # touched: now the youngest entry
    for case in cases[4:]:
        ecdsa_verify(*case)  # evicts cases[1], then cases[2]
    assert P256.verify_memo_size == 4

    hits = P256.stats.verify_memo_hits
    ecdsa_verify(*cases[0])
    assert P256.stats.verify_memo_hits == hits + 1
    misses = P256.stats.verify_memo_misses
    ecdsa_verify(*cases[1])
    assert P256.stats.verify_memo_misses == misses + 1
    assert P256.verify_memo_size == 4

    P256.reset_verified_signatures()
    assert P256.verify_memo_size == 0


#: A small pool of good and bad cases: repeats of a case hit the memo
#: (if it verified), every other case is novel.
def _pool():
    pool = []
    for key in (KEY_A, KEY_B):
        for i in range(3):
            point, message, (r, s) = _signed(key, b"pool-%d" % i)
            pool.append((point, message, (r, s)))
            pool.append((point, message, (r, N - s)))
            pool.append((point, message + b"!", (r, s)))
            pool.append((point, message, (r, s % (N - 1) + 1)))
    return pool


POOL = _pool()
_REFERENCE = {}


def _reference_verdict(index: int) -> bool:
    if index not in _REFERENCE:
        _REFERENCE[index] = _accepts(ecdsa_verify_reference, *POOL[index])
    return _REFERENCE[index]


@given(st.lists(st.integers(min_value=0, max_value=len(POOL) - 1),
                min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_interleaved_repeat_and_novel_verifies_match_reference(order):
    P256.reset_verified_signatures()
    accepted = set()
    for index in order:
        hits = P256.stats.verify_memo_hits
        verdict = _accepts(ecdsa_verify, *POOL[index])
        assert verdict == _reference_verdict(index)
        # A hit happens exactly when this case verified before.
        assert (P256.stats.verify_memo_hits == hits + 1) == (index in accepted)
        if verdict:
            accepted.add(index)
    assert P256.verify_memo_size == len(accepted)
