"""NIST P-256 (secp256r1) group arithmetic, with a fast-path engine.

Two layers coexist deliberately:

- **Reference ladder** — :meth:`_Curve.multiply` is the simple left-to-right
  Jacobian double-and-add from the seed implementation.  It is kept byte-
  for-byte unchanged in behaviour and serves as the *oracle* every fast
  path is cross-checked against (``tests/crypto/test_ec_fast.py``).
- **Fast engine** — the hot paths the enrollment pipeline actually runs,
  all on one private ladder (:meth:`_Curve._ladder`) that walks a sparse
  map of affine addends with the ``a = -3`` doubling and the mixed
  Jacobian+affine addition inlined:

  * :meth:`_Curve.multiply_generator` uses a **signed fixed-base comb**:
    7-bit windows with digits in ``[-63, 64]`` over tables built once per
    curve (37 windows of the 64 multiples ``1..64`` of ``2**(7i) * G``,
    stored affine, a negative digit negating ``y``), so ``k * G`` is at
    most 37 mixed additions and *no* doublings at all.
  * :meth:`_Curve.multiply_dual` computes ``u1*G + u2*Q`` with
    Shamir/Strauss interleaving over **wNAF** digits, each scalar split
    into four 64-bit chunks — one shared doubling ladder of ~64 steps
    instead of two full multiplies plus an add.  The generator side reads
    tables precomputed once per curve; the key side reads tables cached
    per public key in an LRU.
  * :meth:`_Curve.multiply_point` is the single-scalar wNAF ladder used by
    ECDH, where the base point is the peer's (not the generator).
  * Scalars are recoded by :func:`_wnaf_sparse`, which emits only the
    non-zero digits and skips each run of zeros in one step.
  * :meth:`_Curve.validate_public` is **cofactor-aware**: for a cofactor-1
    curve the full-order ``n * P`` check is mathematically redundant (the
    whole curve has prime order ``n``, so every on-curve point other than
    infinity already has order ``n``) and is skipped; an LRU of already-
    validated points turns repeated validations of the same VM/CA/VNF key
    into one dict hit.  :meth:`_Curve.validate_public_uncached` keeps the
    original full-order check as the reference/oracle path.
  * :meth:`_Curve.verified_before` and :meth:`_Curve.remember_verified`
    are the memo of successful ECDSA verifications that
    :func:`repro.crypto.ecdsa.ecdsa_verify` consults before its ladder,
    so the CA anchor, controller certificate and CRL signatures that
    every enrollment re-verifies cost one dict hit.

Every fast-path invocation, table build and cache hit/miss is
counted in :class:`EcEngineStats` (plain integers — negligible overhead);
:meth:`repro.obs.Telemetry.sync_ec_stats` mirrors the counters into the
metrics registry so they show up on the VM's ``/metrics`` endpoint.  See
``docs/PERFORMANCE.md`` for the design discussion and the E11 benchmark
tables proving the speedups.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, NamedTuple, Optional, Tuple

from repro.analysis.sanitizer import make_lock, make_rlock, shared_state
from repro.errors import InvalidPoint

#: Window width (bits) of the signed fixed-base comb used by
#: multiply_generator.  Digits lie in ``[-63, 64]``, so each window's
#: table holds the 2**(FIXED_BASE_WINDOW-1) = 64 multiples ``1..64`` of
#: its base and a negative digit negates ``y``.
FIXED_BASE_WINDOW = 7

#: wNAF width for the precomputed generator tables in multiply_dual.
GENERATOR_WNAF_WIDTH = 8

#: wNAF width for per-call points (the ECDH peer side): the table is
#: built fresh each call, so a narrow window keeps the build cheap.
POINT_WNAF_WIDTH = 5

#: wNAF width for the public-key side of the dual ladder.  Its tables are
#: cached per key, but a first-seen key pays for DUAL_SPLIT of them, and a
#: narrow window keeps that first verify about as cheap as an unsplit
#: ladder (width 6 measured 1.14x slower on a first-seen key).
DUAL_POINT_WNAF_WIDTH = 5

#: Number of chunks the dual ladder splits each scalar into: the shared
#: doubling ladder then runs over one chunk's bit length (64 for P-256).
DUAL_SPLIT = 4

#: Bound on the validated-point LRU (per curve).
VALIDATION_CACHE_CAPACITY = 512

#: Bound on the per-point table LRU (per curve).  Entries are small
#: (DUAL_SPLIT tables of 2**(DUAL_POINT_WNAF_WIDTH-2) affine points, 32 in
#: all) and the hit pattern is highly repetitive: chain validation always
#: verifies against the same CA key, and every handshake against a given
#: peer reuses its key.
POINT_TABLE_CACHE_CAPACITY = 128

#: Bound on the memo of successful ECDSA verifications (per curve).  An
#: enrollment adds about five entries that never repeat and touches the
#: same three (the CA anchor's self-signature, the controller
#: certificate and the CRL) every time, so the LRU keeps those three.
VERIFY_MEMO_CAPACITY = 1024


class Point(NamedTuple):
    """An affine curve point; ``None`` coordinates never appear here —
    the point at infinity is represented by Python ``None`` at call sites."""

    x: int
    y: int


class EcEngineStats:
    """Operation counters for the fast-path engine (one instance per curve).

    Counters are bumped through :meth:`bump`, which holds a private lock:
    a bare ``+= 1`` is a read-modify-write that loses increments when
    concurrent fleet enrollments (:mod:`repro.core.fleet`) hammer the
    engine from many threads.  The lock costs ~100 ns against scalar
    multiplications measured in hundreds of microseconds, so the E11
    speedup gates are unaffected.  The telemetry layer snapshots the
    counters on scrape rather than the crypto layer pushing into a
    registry.
    """

    _COUNTERS = (
        "reference_mults",
        "generator_mults",
        "dual_mults",
        "wnaf_mults",
        "table_builds",
        "validation_cache_hits",
        "validation_cache_misses",
        "order_checks_skipped",
        "point_table_hits",
        "point_table_misses",
        "verify_memo_hits",
        "verify_memo_misses",
    )

    __slots__ = _COUNTERS + ("_lock",)

    def __init__(self) -> None:
        self._lock = make_lock("ec_stats")
        self.reset()

    def bump(self, name: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to the counter called ``name``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            for name in self._COUNTERS:
                setattr(self, name, 0)

    def snapshot(self) -> dict:
        """Current counters as a plain dict (telemetry sync + tests)."""
        with self._lock:
            return {name: getattr(self, name) for name in self._COUNTERS}


def _wnaf_sparse(k: int, width: int) -> List[Tuple[int, int]]:
    """Non-zero digits of the width-``width`` NAF of ``k`` as
    ``(position, digit)`` pairs, least significant first.

    Digits are odd in ``[-(2**(width-1) - 1), 2**(width-1) - 1]`` and at
    least ``width`` positions apart, so a wNAF ladder makes about
    ``len/(width + 1)`` additions.  Each run of zero digits is skipped
    with one trailing-zero count instead of one loop step per bit.
    """
    pairs: List[Tuple[int, int]] = []
    modulus = 1 << width
    half = modulus >> 1
    mask = modulus - 1
    position = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        position += zeros
        digit = k & mask
        if digit >= half:
            digit -= modulus
        pairs.append((position, digit))
        # k - digit is divisible by 2**width: the next width - 1 digits
        # are zero and the one after is read from the next loop step.
        k = (k - digit) >> width
        position += width
    return pairs


def _place(steps: dict, pairs: List[Tuple[int, int]], table: List[Point],
           p: int) -> None:
    """Add each ``(position, digit)`` of a wNAF recoding to the ladder map
    ``steps`` as the affine entry ``|digit| * base`` of an odd-multiples
    ``table``, with ``y`` negated for a negative digit."""
    for position, digit in pairs:
        if digit > 0:
            entry = table[digit >> 1]
        else:
            x, y = table[-digit >> 1]
            entry = (x, p - y)
        if position in steps:
            steps[position].append(entry)
        else:
            steps[position] = [entry]


@shared_state("_verified_signatures")
class _Curve:
    """Short-Weierstrass curve y^2 = x^3 + ax + b over GF(p)."""

    def __init__(self, name: str, p: int, a: int, b: int,
                 gx: int, gy: int, n: int, h: int = 1) -> None:
        self.name = name
        self.p = p
        self.a = a
        self.b = b
        self.generator = Point(gx, gy)
        self.n = n  # group order
        self.h = h  # cofactor (1 for all NIST prime curves)
        self.coordinate_size = (p.bit_length() + 7) // 8
        self.stats = EcEngineStats()
        # Guards the validated-point LRU, the per-point table LRU, the
        # verified-signature memo and the lazy one-shot table builds
        # below.  RLock because validation may nest inside a locked
        # table build on cofactor>1 curves.  Leaf domain of its own
        # ("ec_curves", not the core "cache" chain):
        # point validation runs under TLS handshakes that the fleet
        # drives while holding per-host leaf locks, and a chain-ranked
        # domain there would (and, before the runtime sanitizer, did)
        # read as a leaf-lock order violation.
        self._lock = make_rlock("ec_curves")
        # Lazily built fast-path tables (once per curve, never mutated).
        self._fixed_base: Optional[List[List[Point]]] = None
        self._generator_odd: Optional[List[List[Point]]] = None
        # Chunk length of the dual ladder's scalar split (64 for P-256):
        # ``u = sum(u_j * 2**(j * chunk_bits))`` over DUAL_SPLIT chunks,
        # so the shared doubling ladder runs one chunk's bit length.
        self._chunk_bits = (n.bit_length() + DUAL_SPLIT - 1) // DUAL_SPLIT
        # LRU of already-validated public points: (x, y) -> True.
        self._validated: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self.validation_cache_capacity = VALIDATION_CACHE_CAPACITY
        # LRU of per-point affine odd-multiples tables for the dual
        # ladder: (x, y) -> [[1Q_j, 3Q_j, ...] for j < DUAL_SPLIT] with
        # Q_j = 2**(j * chunk_bits) * Q.
        self._point_tables: "OrderedDict[Tuple[int, int], List[List[Point]]]" = \
            OrderedDict()
        self.point_table_cache_capacity = POINT_TABLE_CACHE_CAPACITY
        # LRU of successful ECDSA verifications: a 32-byte fingerprint of
        # (point, message digest, r, s) -> True.  Public values only.
        self._verified_signatures: "OrderedDict[bytes, bool]" = OrderedDict()

    # ------------------------------------------------------------- checks

    def contains(self, point: Optional[Point]) -> bool:
        """True if ``point`` is on the curve (infinity counts as on-curve)."""
        if point is None:
            return True
        x, y = point
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def validate_public(self, point: Optional[Point]) -> Point:
        """Validate a public-key point: on-curve, not infinity, right order.

        Fast path: a bounded LRU remembers already-validated points, so the
        pipeline's repeated verifications against the same CA / VM / VNF
        key cost one dict lookup.  For cofactor-1 curves the full-order
        scalar multiplication is skipped entirely — with ``h == 1`` the
        curve's whole point group has prime order ``n``, so *every*
        on-curve point except infinity has order exactly ``n`` and the
        ``n * P == O`` check can never fail once ``contains`` passed.
        Invalid points are never cached.
        """
        if point is None:
            raise InvalidPoint("public key is the point at infinity")
        key = (point.x, point.y)
        cache = self._validated
        with self._lock:
            if key in cache:
                cache.move_to_end(key)
                self.stats.bump("validation_cache_hits")
                return point
        self.stats.bump("validation_cache_misses")
        if not self.contains(point):
            raise InvalidPoint(f"point {point} is not on {self.name}")
        if self.h == 1:
            self.stats.bump("order_checks_skipped")
        elif self.multiply(self.n, point) is not None:
            raise InvalidPoint("point has wrong order")
        with self._lock:
            cache[key] = True
            if len(cache) > self.validation_cache_capacity:
                cache.popitem(last=False)
        return point

    def validate_public_uncached(self, point: Optional[Point]) -> Point:
        """The original (reference) validation: on-curve, non-infinity and
        an explicit full-order ``n * P == O`` check, with no caching.  Kept
        as the oracle the fast path is cross-checked against."""
        if point is None:
            raise InvalidPoint("public key is the point at infinity")
        if not self.contains(point):
            raise InvalidPoint(f"point {point} is not on {self.name}")
        if self.multiply(self.n, point) is not None:
            raise InvalidPoint("point has wrong order")
        return point

    def reset_validation_cache(self) -> None:
        """Drop every cached validation verdict (tests / key rotation)."""
        with self._lock:
            self._validated.clear()

    def reset_point_tables(self) -> None:
        """Drop every cached odd-multiples table (tests).  Safe at any
        time: tables are pure functions of the point coordinates."""
        with self._lock:
            self._point_tables.clear()

    @property
    def validation_cache_size(self) -> int:
        """Number of points currently remembered as valid."""
        with self._lock:
            return len(self._validated)

    # ------------------------------------------- verified-signature memo

    def verified_before(self, fingerprint: bytes) -> bool:
        """True if an ECDSA verification with this ``fingerprint`` (see
        :func:`repro.crypto.ecdsa.ecdsa_verify`) succeeded before; counts
        a memo hit or miss.

        Nothing flushes the memo: whether a signature over exact bytes
        verifies under an exact key never changes.  Revocation, expiry
        and distrust are decided by checks that run on every validation
        around the verify, and a hit skips none of them.
        """
        with self._lock:
            memo = self._verified_signatures
            if fingerprint in memo:
                memo.move_to_end(fingerprint)
                self.stats.bump("verify_memo_hits")
                return True
        self.stats.bump("verify_memo_misses")
        return False

    def remember_verified(self, fingerprint: bytes) -> None:
        """Record a successful verification; failures are never stored.

        The ladder runs outside the lock, so two threads racing on the
        same new signature both compute it and both store the same entry.
        """
        with self._lock:
            memo = self._verified_signatures
            memo[fingerprint] = True
            if len(memo) > VERIFY_MEMO_CAPACITY:
                memo.popitem(last=False)

    def reset_verified_signatures(self) -> None:
        """Drop every remembered verification (tests and benchmarks)."""
        with self._lock:
            self._verified_signatures.clear()

    @property
    def verify_memo_size(self) -> int:
        """Number of verifications currently remembered."""
        with self._lock:
            return len(self._verified_signatures)

    # ------------------------------------------------------- group arithmetic

    def _to_jacobian(self, point: Optional[Point]):
        if point is None:
            return (0, 1, 0)
        return (point.x, point.y, 1)

    def _from_jacobian(self, jac) -> Optional[Point]:
        x, y, z = jac
        if z == 0:
            return None
        p = self.p
        z_inv = pow(z, p - 2, p)
        z2 = z_inv * z_inv % p
        return Point(x * z2 % p, y * z2 * z_inv % p)

    def _from_jacobian_fast(self, jac) -> Optional[Point]:
        """Jacobian→affine using the extended-gcd inverse (``pow(z, -1, p)``).

        CPython computes negative-exponent ``pow`` with a binary extended
        GCD, ~7x faster than the Fermat ``z**(p-2)`` power for 256-bit
        moduli.  Identical output; the reference :meth:`_from_jacobian`
        keeps the Fermat form so the oracle path stays byte-frozen.
        """
        x, y, z = jac
        if z == 0:
            return None
        p = self.p
        z_inv = pow(z, -1, p)
        z2 = z_inv * z_inv % p
        return Point(x * z2 % p, y * z2 * z_inv % p)

    def _jac_double(self, jac):
        x1, y1, z1 = jac
        p = self.p
        if z1 == 0 or y1 == 0:
            return (0, 1, 0)
        ysq = y1 * y1 % p
        s = 4 * x1 * ysq % p
        m = (3 * x1 * x1 + self.a * pow(z1, 4, p)) % p
        x3 = (m * m - 2 * s) % p
        y3 = (m * (s - x3) - 8 * ysq * ysq) % p
        z3 = 2 * y1 * z1 % p
        return (x3, y3, z3)

    def _jac_add(self, jac1, jac2):
        p = self.p
        x1, y1, z1 = jac1
        x2, y2, z2 = jac2
        if z1 == 0:
            return jac2
        if z2 == 0:
            return jac1
        z1z1 = z1 * z1 % p
        z2z2 = z2 * z2 % p
        u1 = x1 * z2z2 % p
        u2 = x2 * z1z1 % p
        s1 = y1 * z2z2 * z2 % p
        s2 = y2 * z1z1 * z1 % p
        if u1 == u2:
            if s1 != s2:
                return (0, 1, 0)  # inverses: P + (-P) = O
            return self._jac_double(jac1)
        h = (u2 - u1) % p
        r = (s2 - s1) % p
        h2 = h * h % p
        h3 = h2 * h % p
        u1h2 = u1 * h2 % p
        x3 = (r * r - h3 - 2 * u1h2) % p
        y3 = (r * (u1h2 - x3) - s1 * h3) % p
        z3 = h * z1 * z2 % p
        return (x3, y3, z3)

    def add(self, p1: Optional[Point], p2: Optional[Point]) -> Optional[Point]:
        """Group addition in affine terms."""
        return self._from_jacobian(
            self._jac_add(self._to_jacobian(p1), self._to_jacobian(p2))
        )

    def double(self, point: Optional[Point]) -> Optional[Point]:
        """Point doubling in affine terms."""
        return self._from_jacobian(self._jac_double(self._to_jacobian(point)))

    def negate(self, point: Optional[Point]) -> Optional[Point]:
        """Additive inverse of a point."""
        if point is None:
            return None
        return Point(point.x, (-point.y) % self.p)

    def multiply(self, k: int, point: Optional[Point]) -> Optional[Point]:
        """Scalar multiplication ``k * point`` — the **reference ladder**.

        Simple right-to-left double-and-add in Jacobian coordinates.  This
        is deliberately left untouched: it is the oracle the comb / wNAF /
        dual-scalar fast paths are cross-checked against.
        """
        self.stats.bump("reference_mults")
        k %= self.n
        if k == 0 or point is None:
            return None
        acc = (0, 1, 0)
        addend = self._to_jacobian(point)
        while k:
            if k & 1:
                acc = self._jac_add(acc, addend)
            addend = self._jac_double(addend)
            k >>= 1
        return self._from_jacobian(acc)

    # ---------------------------------------------------- the shared ladder

    def _ladder(self, steps: dict, top: int, acc: tuple = (0, 1, 0)) -> tuple:
        """Left-to-right double-and-add over a sparse map of affine addends.

        For ``i`` from ``top - 1`` down to 0: double the Jacobian
        accumulator, then add each affine ``(x, y)`` in ``steps.get(i)``.
        The result is ``2**top * acc + sum(2**i * addend)``, in Jacobian
        coordinates.  Every fast path runs here: the comb puts all its
        addends at position 0, the wNAF multiplies put each digit's table
        entry at its position, and the table builds pass no addends to
        shift a base point by ``2**top``.

        For ``a = -3`` curves (every NIST prime curve, P-256 included) the
        doubling is dbl-2001-b, inlined, with no ``z**4`` power; the
        addition is the mixed Jacobian+affine madd-2004-hmv, inlined.  The
        generic ``_jac_double`` covers other curves and the addition's
        equal-points case.
        """
        p = self.p
        a_is_minus3 = self.a == p - 3
        x1, y1, z1 = acc
        empty: tuple = ()
        steps_get = steps.get
        for i in range(top - 1, -1, -1):
            # -- double (inlined dbl-2001-b for a = -3; generic fallback)
            if z1:
                if y1 == 0:
                    x1, y1, z1 = 0, 1, 0
                elif a_is_minus3:
                    delta = z1 * z1 % p
                    gamma = y1 * y1 % p
                    beta = x1 * gamma % p
                    alpha = 3 * (x1 - delta) * (x1 + delta) % p
                    x3 = (alpha * alpha - (beta << 3)) % p
                    t = y1 + z1
                    z1 = (t * t - gamma - delta) % p
                    gg = gamma * gamma
                    y1 = (alpha * ((beta << 2) - x3) - (gg << 3)) % p
                    x1 = x3
                else:
                    x1, y1, z1 = self._jac_double((x1, y1, z1))
            for x2, y2 in steps_get(i, empty):
                # -- inlined mixed Jacobian+affine addition (madd-2004-hmv)
                if z1 == 0:
                    x1, y1, z1 = x2, y2, 1
                    continue
                z1z1 = z1 * z1 % p
                u2 = x2 * z1z1 % p
                s2 = y2 * z1z1 * z1 % p
                if x1 == u2:
                    if y1 != s2:
                        x1, y1, z1 = 0, 1, 0
                    else:
                        x1, y1, z1 = self._jac_double((x1, y1, z1))
                    continue
                h = (u2 - x1) % p
                r = (s2 - y1) % p
                h2 = h * h % p
                h3 = h2 * h % p
                u1h2 = x1 * h2 % p
                x3 = (r * r - h3 - (u1h2 << 1)) % p
                y1 = (r * (u1h2 - x3) - y1 * h3) % p
                z1 = h * z1 % p
                x1 = x3
        return (x1, y1, z1)

    # --------------------------------------------------- fast-path tables

    def _fixed_base_table(self) -> List[List[Point]]:
        """``table[i][j-1] = j * 2**(7i) * G`` for ``j`` in ``1..64``, affine.

        Built lazily, once per curve: 37 windows for a 256-bit order (one
        bit more than the order, so a recoding carry always fits) of 64
        entries each, converted with one batch inversion.  With the table
        in hand, ``k * G`` is at most one mixed addition per 7-bit window
        of ``k`` — no doublings.
        """
        table_ref = self._fixed_base
        if table_ref is None:
            with self._lock:
                if self._fixed_base is None:  # double-checked: build once
                    self.stats.bump("table_builds")
                    size = 1 << (FIXED_BASE_WINDOW - 1)
                    windows = (self.n.bit_length() + FIXED_BASE_WINDOW) \
                        // FIXED_BASE_WINDOW
                    base = self._to_jacobian(self.generator)
                    jacs: List[tuple] = []
                    for _ in range(windows):
                        jacs.append(base)
                        for _ in range(size - 1):
                            jacs.append(self._jac_add(jacs[-1], base))
                        base = self._ladder({}, FIXED_BASE_WINDOW, base)
                    affine = self._to_affine_batch(jacs)
                    self._fixed_base = [affine[i:i + size]
                                        for i in range(0, len(affine), size)]
                table_ref = self._fixed_base
        return table_ref

    def _generator_wnaf_tables(self) -> List[List[Point]]:
        """The dual ladder's generator-side tables: ``_odd_tables`` of
        ``G`` at GENERATOR_WNAF_WIDTH, one per scalar chunk.  Built once
        per curve."""
        tables_ref = self._generator_odd
        if tables_ref is None:
            with self._lock:
                if self._generator_odd is None:  # double-checked
                    self.stats.bump("table_builds")
                    self._generator_odd = self._odd_tables(
                        self.generator, GENERATOR_WNAF_WIDTH, DUAL_SPLIT)
                tables_ref = self._generator_odd
        return tables_ref

    def _odd_tables(self, point: Point, width: int,
                    ways: int) -> List[List[Point]]:
        """Affine odd multiples ``[1, 3, ..., 2**(width-1) - 1]`` of each
        base ``2**(j * chunk_bits) * point`` for ``j < ways``: one table
        per scalar chunk, all converted with one batch inversion."""
        count = 1 << (width - 2)
        base = self._to_jacobian(point)
        jacs: List[tuple] = []
        for way in range(ways):
            if way:
                base = self._ladder({}, self._chunk_bits, base)
            twice = self._jac_double(base)
            jacs.append(base)
            for _ in range(count - 1):
                jacs.append(self._jac_add(jacs[-1], twice))
        affine = self._to_affine_batch(jacs)
        return [affine[i:i + count] for i in range(0, len(affine), count)]

    def _to_affine_batch(self, jacs: List[tuple]) -> List[Point]:
        """Convert several Jacobian points to affine with **one** field
        inversion (Montgomery's batch-inversion trick).

        ``k`` inversions cost ``3(k-1)`` multiplications plus a single
        ``pow``; affine table entries then let every ladder addition use
        the mixed form.  None of the inputs may be the point at infinity
        (no table entry is: the prime ``n`` divides none of their
        multipliers).
        """
        p = self.p
        zs = [z for _, _, z in jacs]
        prefix = [1] * (len(zs) + 1)
        for i, z in enumerate(zs):
            prefix[i + 1] = prefix[i] * z % p
        inv_all = pow(prefix[-1], -1, p)
        out: List[Point] = [None] * len(jacs)  # type: ignore[list-item]
        for i in range(len(jacs) - 1, -1, -1):
            x, y, z = jacs[i]
            z_inv = inv_all * prefix[i] % p
            inv_all = inv_all * z % p
            z2 = z_inv * z_inv % p
            out[i] = Point(x * z2 % p, y * z2 * z_inv % p)
        return out

    def _point_odd_table(self, point: Point) -> List[List[Point]]:
        """The dual ladder's key-side tables for ``point``, from the
        per-point LRU: ``_odd_tables`` at DUAL_POINT_WNAF_WIDTH, one per
        scalar chunk.

        Building them costs ~192 doublings plus ~30 additions and one
        batch inversion — but chain validation verifies every certificate
        against the same CA key and each TLS peer reuses its key across
        handshakes, so the build amortises to a dict hit on the common
        path.
        """
        key = (point.x, point.y)
        cache = self._point_tables
        with self._lock:
            tables = cache.get(key)
            if tables is not None:
                cache.move_to_end(key)
                self.stats.bump("point_table_hits")
                return tables
        # Build outside the lock: ~192 doublings plus a batch inversion.
        # Two threads racing on the same new key both build; the second
        # insert wins and the tables are identical (pure function of the
        # point), so the duplicate work is bounded and harmless.
        self.stats.bump("point_table_misses")
        tables = self._odd_tables(point, DUAL_POINT_WNAF_WIDTH, DUAL_SPLIT)
        with self._lock:
            cache[key] = tables
            if len(cache) > self.point_table_cache_capacity:
                cache.popitem(last=False)
        return tables

    # ------------------------------------------------------- fast multiplies

    def multiply_generator(self, k: int) -> Optional[Point]:
        """``k * G`` via the signed fixed-base comb (reference:
        ``multiply(k, G)``).

        ``k`` is recoded into 7-bit digits in ``[-63, 64]`` (a digit above
        64 becomes ``digit - 128`` and carries one into the next window),
        and each non-zero digit is one mixed addition of a table entry —
        at most 37 additions, where the plain ladder makes ~256 doublings
        plus ~128 additions.
        """
        self.stats.bump("generator_mults")
        k %= self.n
        if k == 0:
            return None
        table = self._fixed_base_table()
        p = self.p
        mask = (1 << FIXED_BASE_WINDOW) - 1
        half = 1 << (FIXED_BASE_WINDOW - 1)
        addends = []
        window = 0
        while k:
            digit = k & mask
            k >>= FIXED_BASE_WINDOW
            if digit > half:
                digit -= mask + 1
                k += 1
            if digit > 0:
                addends.append(table[window][digit - 1])
            elif digit:
                x, y = table[window][-digit - 1]
                addends.append((x, p - y))
            window += 1
        return self._from_jacobian_fast(self._ladder({0: addends}, 1))

    def multiply_point(self, k: int, point: Optional[Point]) -> Optional[Point]:
        """Single-scalar wNAF ladder for arbitrary base points (ECDH).

        Same result as :meth:`multiply`, ~2.5x fewer additions: the wNAF
        digit density is ``1/(POINT_WNAF_WIDTH+1)`` against the plain
        ladder's 1/2, and each addition is the mixed form against an
        affine odd-multiples table built per call.
        """
        self.stats.bump("wnaf_mults")
        k %= self.n
        if k == 0 or point is None:
            return None
        (table,) = self._odd_tables(point, POINT_WNAF_WIDTH, 1)
        steps: dict = {}
        _place(steps, _wnaf_sparse(k, POINT_WNAF_WIDTH), table, self.p)
        return self._from_jacobian_fast(self._ladder(steps, max(steps) + 1))

    def multiply_dual(self, u1: int, u2: int,
                      point: Optional[Point]) -> Optional[Point]:
        """``u1 * G + u2 * point`` in one split-scalar Strauss wNAF ladder.

        Both scalars are split into DUAL_SPLIT chunks of ``chunk_bits``
        (64 for P-256) as ``u = sum(u_j * 2**(64j))``, giving eight wNAF
        digit streams over the bases ``2**(64j) * G`` and
        ``2**(64j) * point``.  The shared doubling ladder then runs ~64
        steps instead of ~256 — doublings dominate the cost.  Every
        stream reads an *affine* odd-multiples table (the generator's
        built once per curve, the point's cached per public key in an
        LRU), so every addition is the cheap mixed form.
        """
        self.stats.bump("dual_mults")
        u1 %= self.n
        u2 %= self.n
        if point is None or u2 == 0:
            return self.multiply_generator(u1) if u1 else None
        if u1 == 0:
            return self.multiply_point(u2, point)
        bits = self._chunk_bits
        mask = (1 << bits) - 1
        p = self.p
        steps: dict = {}
        for g_table, q_table in zip(self._generator_wnaf_tables(),
                                    self._point_odd_table(point)):
            _place(steps, _wnaf_sparse(u1 & mask, GENERATOR_WNAF_WIDTH),
                   g_table, p)
            _place(steps, _wnaf_sparse(u2 & mask, DUAL_POINT_WNAF_WIDTH),
                   q_table, p)
            u1 >>= bits
            u2 >>= bits
        return self._from_jacobian_fast(self._ladder(steps, max(steps) + 1))

    def multiply_dual_reference(self, u1: int, u2: int,
                                point: Optional[Point]) -> Optional[Point]:
        """Oracle for :meth:`multiply_dual`: two reference ladders + add."""
        return self.add(
            self.multiply(u1, self.generator), self.multiply(u2, point)
        )

    # ------------------------------------------------------- serialization

    def encode_point(self, point: Point) -> bytes:
        """Uncompressed SEC1 encoding: ``04 || X || Y``."""
        size = self.coordinate_size
        return b"\x04" + point.x.to_bytes(size, "big") + point.y.to_bytes(size, "big")

    def decode_point(self, data: bytes, validate: bool = True) -> Point:
        """Parse an uncompressed SEC1 point.

        With ``validate=True`` (the default, and the seed behaviour) the
        decoded point is checked to lie on the curve.  Callers that feed
        the result straight into :meth:`validate_public` — e.g.
        :meth:`repro.crypto.keys.EcPublicKey.from_bytes` — pass
        ``validate=False`` so the point is checked exactly once instead of
        twice; the *combined* path never returns an unvalidated point.
        """
        size = self.coordinate_size
        if len(data) != 1 + 2 * size or data[0] != 0x04:
            raise InvalidPoint("expected uncompressed SEC1 point")
        point = Point(
            int.from_bytes(data[1:1 + size], "big"),
            int.from_bytes(data[1 + size:], "big"),
        )
        if validate and not self.contains(point):
            raise InvalidPoint("decoded point is not on the curve")
        return point


# NIST P-256 domain parameters (FIPS 186-4, appendix D.1.2.3).
P256 = _Curve(
    name="P-256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    h=1,
)
