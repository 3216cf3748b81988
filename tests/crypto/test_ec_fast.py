"""Fast-path EC engine vs. the reference ladder.

Every fast path (signed fixed-base comb, single-scalar wNAF, 4-way split
dual ladder) is pinned byte-for-byte against the untouched reference
double-and-add ladder, over DRBG-seeded random scalars, a hypothesis
property, and the boundary cases ``k in {0, 1, 2, n-1, n, n+1}``, plus
scalars at the comb's carry and sign boundaries and at the split
ladder's 64-bit chunk boundaries.  The validated-point LRU and the
per-point odd-multiples table cache are exercised for hit/miss
accounting, eviction, and the cofactor-1 order-check skip.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ec import (
    P256,
    Point,
    VALIDATION_CACHE_CAPACITY,
    _wnaf_sparse,
)
from repro.crypto.ecdsa import (
    ecdsa_sign,
    ecdsa_verify,
    ecdsa_verify_reference,
)
from repro.crypto.keys import generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import InvalidPoint, InvalidSignature

G = P256.generator
N = P256.n

EDGE_SCALARS = [0, 1, 2, 3, N - 2, N - 1, N, N + 1, N + 2, 2 * N - 1]

#: Scalars at the signed comb's boundaries: n-1 and n-2 carry out of
#: the last full 7-bit window into the partial top one; every 7-bit digit
#: of ALL_64 is 64, the largest positive digit, and of ALL_65 is 65, the
#: smallest one recoded as negative (-63 plus a carry).
ALL_64 = sum(64 << (7 * i) for i in range(36))
ALL_65 = sum(65 << (7 * i) for i in range(36))
COMB_SCALARS = [N - 1, N - 2, ALL_64, ALL_65, (1 << 252) - 1, 1 << 252]

#: Scalars whose 64-bit chunks in the split dual ladder are all zeros or
#: all ones.
CHUNK_SCALARS = [(1 << 64) - 1, 1 << 64, 1 << 128, 1 << 192,
                 (1 << 128) - 1, (1 << 192) - 1, N - 1]


def _random_scalars(label: bytes, count: int):
    rng = HmacDrbg(seed=label)
    return [rng.random_scalar(N) for _ in range(count)]


@pytest.fixture(autouse=True)
def _clean_engine():
    """Isolate cache/stat state per test (P256 is a module singleton)."""
    P256.reset_validation_cache()
    P256.reset_point_tables()
    P256.stats.reset()
    yield
    P256.reset_validation_cache()
    P256.reset_point_tables()


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return P256.encode_point(a) == P256.encode_point(b)


# ------------------------------------------------------------------ wNAF


def test_wnaf_reconstructs_scalar():
    for width in (4, 5, 6, 7, 8):
        for k in EDGE_SCALARS + CHUNK_SCALARS + _random_scalars(b"wnaf", 20):
            pairs = _wnaf_sparse(k, width)
            assert sum(d << i for i, d in pairs) == k
            half = 1 << (width - 1)
            for _, d in pairs:
                assert d % 2 == 1 and -half < d < half


def test_wnaf_nonzero_digit_spacing():
    for width in (5, 8):
        for k in CHUNK_SCALARS + _random_scalars(b"wnaf-spacing", 10):
            positions = [i for i, _ in _wnaf_sparse(k, width)]
            for a, b in zip(positions, positions[1:]):
                assert b - a >= width


def _dense_wnaf(k, width):
    """The textbook bit-at-a-time wNAF (least significant digit first)."""
    digits = []
    while k:
        digit = 0
        if k & 1:
            digit = k & ((1 << width) - 1)
            if digit >= 1 << (width - 1):
                digit -= 1 << width
            k -= digit
        digits.append(digit)
        k >>= 1
    return digits


def test_sparse_wnaf_matches_dense_recoding():
    for width in (5, 8):
        for k in EDGE_SCALARS + CHUNK_SCALARS + _random_scalars(b"dense", 10):
            dense = _dense_wnaf(k, width)
            assert _wnaf_sparse(k, width) == [
                (i, d) for i, d in enumerate(dense) if d]


# ------------------------------------------------- fixed-base comb (k*G)


def test_multiply_generator_matches_reference_random():
    for k in _random_scalars(b"comb", 40):
        assert _same(P256.multiply_generator(k), P256.multiply(k, G))


def test_multiply_generator_matches_reference_edges():
    for k in EDGE_SCALARS + COMB_SCALARS:
        assert _same(P256.multiply_generator(k), P256.multiply(k, G))


# --------------------------------------------- single-scalar wNAF (ECDH)


def test_multiply_point_matches_reference():
    for m in (1, 0xB00F, N - 1, 0xC0FFEE << 200):
        q = P256.multiply(m, G)
        for k in EDGE_SCALARS + _random_scalars(b"wnaf-point-%x" % m, 8):
            assert _same(P256.multiply_point(k, q), P256.multiply(k, q))


def test_multiply_point_infinity_inputs():
    assert P256.multiply_point(5, None) is None
    assert P256.multiply_point(0, G) is None


# ------------------------------------------- split-scalar dual ladder


def test_multiply_dual_matches_reference_random():
    q = P256.multiply(0xDEC0DE, G)
    rng = HmacDrbg(seed=b"dual")
    for _ in range(40):
        u1 = rng.random_scalar(N)
        u2 = rng.random_scalar(N)
        assert _same(P256.multiply_dual(u1, u2, q),
                     P256.multiply_dual_reference(u1, u2, q))


def test_multiply_dual_matches_reference_edges():
    q = P256.multiply(0xFACE, G)
    for u1 in EDGE_SCALARS:
        for u2 in (0, 1, N - 1, N, 0x1234):
            assert _same(P256.multiply_dual(u1, u2, q),
                         P256.multiply_dual_reference(u1, u2, q))


def test_multiply_dual_chunk_boundaries_on_miss_and_hit():
    q = P256.multiply(0xC4A2, G)
    for u1 in CHUNK_SCALARS:
        for u2 in CHUNK_SCALARS:
            P256.reset_point_tables()
            expected = P256.multiply_dual_reference(u1, u2, q)
            assert _same(P256.multiply_dual(u1, u2, q), expected)  # miss
            assert _same(P256.multiply_dual(u1, u2, q), expected)  # hit
    assert P256.stats.point_table_misses == len(CHUNK_SCALARS) ** 2
    assert P256.stats.point_table_hits == len(CHUNK_SCALARS) ** 2


def test_multiply_dual_cancellation():
    # u1*G + u2*Q with Q = m*G and u1 + u2*m = 0 (mod n) hits the
    # P + (-P) branch of the inlined addition and must return infinity,
    # also when u2's chunks are all zeros or all ones.
    m = 0x5EED
    q = P256.multiply(m, G)
    for u2 in [7] + CHUNK_SCALARS:
        u1 = (-u2 * m) % N
        assert P256.multiply_dual(u1, u2, q) is None
        assert P256.multiply_dual_reference(u1, u2, q) is None


SCALARS = st.integers(min_value=0, max_value=2 * N)


@given(SCALARS, SCALARS, st.integers(min_value=1, max_value=N - 1))
@settings(max_examples=25, deadline=None)
def test_fast_multiplies_match_reference_property(u1, u2, m):
    q = P256.multiply(m, G)
    assert _same(P256.multiply_dual(u1, u2, q),
                 P256.multiply_dual_reference(u1, u2, q))
    assert _same(P256.multiply_point(u2, q), P256.multiply(u2, q))


def test_multiply_dual_none_point():
    assert _same(P256.multiply_dual(5, 0, None), P256.multiply(5, G))
    assert P256.multiply_dual(0, 0, None) is None


# ------------------------------------------------------ ECDSA agreement


def test_ecdsa_fast_and_reference_verifiers_agree():
    rng = HmacDrbg(seed=b"ecdsa-agree")
    key = generate_keypair(rng)
    for i in range(10):
        message = b"msg-%d" % i
        r, s = ecdsa_sign(key.scalar, message)
        ecdsa_verify(key.public.point, message, (r, s))
        ecdsa_verify_reference(key.public.point, message, (r, s))
        with pytest.raises(InvalidSignature):
            ecdsa_verify(key.public.point, message, ((r ^ 2) or 1, s))
        with pytest.raises(InvalidSignature):
            ecdsa_verify_reference(key.public.point, message,
                                   ((r ^ 2) or 1, s))
        with pytest.raises(InvalidSignature):
            ecdsa_verify(key.public.point, message + b"x", (r, s))


# ------------------------------------------------- validated-point LRU


def test_validate_public_caches_and_counts():
    q = P256.multiply(0xCAFE, G)
    P256.validate_public(q)
    assert P256.stats.validation_cache_misses == 1
    assert P256.stats.validation_cache_hits == 0
    assert P256.stats.order_checks_skipped == 1  # cofactor-1 skip
    P256.validate_public(q)
    P256.validate_public(q)
    assert P256.stats.validation_cache_hits == 2
    assert P256.validation_cache_size == 1


def test_validate_public_rejects_and_never_caches_bad_points():
    bad = Point(1, 1)
    for _ in range(2):
        with pytest.raises(InvalidPoint):
            P256.validate_public(bad)
    assert P256.stats.validation_cache_misses == 2  # no negative caching
    assert P256.validation_cache_size == 0
    with pytest.raises(InvalidPoint):
        P256.validate_public(None)


def test_validate_public_uncached_matches_fast_verdicts():
    good = P256.multiply(99, G)
    assert P256.validate_public_uncached(good) == good
    assert P256.validate_public(good) == good
    with pytest.raises(InvalidPoint):
        P256.validate_public_uncached(Point(2, 3))


def test_validation_cache_evicts_at_capacity():
    original = P256.validation_cache_capacity
    P256.validation_cache_capacity = 4
    try:
        points = [P256.multiply(k, G) for k in range(2, 9)]
        for q in points:
            P256.validate_public(q)
        assert P256.validation_cache_size == 4
        # Oldest entry was evicted: validating it again is a miss.
        misses = P256.stats.validation_cache_misses
        P256.validate_public(points[0])
        assert P256.stats.validation_cache_misses == misses + 1
    finally:
        P256.validation_cache_capacity = original
        P256.reset_validation_cache()
    assert VALIDATION_CACHE_CAPACITY >= 64  # sized for fleet-scale keys


# ------------------------------------------- per-point table LRU


def test_point_table_cache_hits_on_repeat_key():
    q = P256.multiply(0x1DEA, G)
    P256.multiply_dual(3, 5, q)
    assert P256.stats.point_table_misses == 1
    P256.multiply_dual(7, 11, q)
    P256.multiply_dual(13, 17, q)
    assert P256.stats.point_table_hits == 2
    assert P256.stats.point_table_misses == 1


def test_point_table_cache_evicts_at_capacity():
    original = P256.point_table_cache_capacity
    P256.point_table_cache_capacity = 2
    try:
        qs = [P256.multiply(k, G) for k in (21, 22, 23)]
        for q in qs:
            P256.multiply_dual(3, 5, q)
        assert len(P256._point_tables) == 2
        misses = P256.stats.point_table_misses
        P256.multiply_dual(3, 5, qs[0])  # evicted: rebuilds
        assert P256.stats.point_table_misses == misses + 1
    finally:
        P256.point_table_cache_capacity = original
        P256.reset_point_tables()


def test_dual_results_identical_on_hit_and_miss():
    q = P256.multiply(0xF00D, G)
    first = P256.multiply_dual(0x1111, 0x2222, q)   # miss: builds tables
    second = P256.multiply_dual(0x1111, 0x2222, q)  # hit: cached tables
    assert _same(first, second)
    assert _same(first, P256.multiply_dual_reference(0x1111, 0x2222, q))


# -------------------------------------------------------- stats plumbing


def test_stats_snapshot_and_reset():
    P256.multiply_generator(5)
    P256.multiply(5, G)
    snap = P256.stats.snapshot()
    assert snap["generator_mults"] == 1
    assert snap["reference_mults"] == 1
    P256.stats.reset()
    assert all(v == 0 for v in P256.stats.snapshot().values())


def test_decode_point_single_validation():
    # decode_point(validate=False) + validate_public = exactly one
    # on-curve check; the combined path still rejects bad points.
    q = P256.multiply(77, G)
    encoded = P256.encode_point(q)
    decoded = P256.decode_point(encoded, validate=False)
    assert decoded == q
    bad = bytearray(encoded)
    bad[-1] ^= 1
    with pytest.raises(InvalidPoint):
        P256.decode_point(bytes(bad))  # default validates
    lenient = P256.decode_point(bytes(bad), validate=False)
    with pytest.raises(InvalidPoint):
        P256.validate_public(lenient)
