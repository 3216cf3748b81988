"""E11 — crypto hot path: fast paths vs. their reference oracles.

The enrollment pipeline is ECDSA-bound: every certificate issuance signs,
every chain validation and handshake verifies.  This experiment measures
the fast paths the EC engine grew —

* signed fixed-base comb for ``k*G`` (signing, key generation),
* split-scalar Strauss/wNAF ``u1*G + u2*Q`` (verification), against a
  key whose tables are cached (``ecdsa_verify``) and against a
  first-seen key that builds them (``ecdsa_verify-cold``), both with the
  verified-signature memo emptied per call so they time the ladder,
* the memo hit on a repeated verification (``ecdsa_verify-repeat``),
* single-scalar wNAF ``k*Q`` on a peer point (``ecdh``), and
* the validated-point LRU that retires the redundant full-order check —

against the untouched reference double-and-add ladder, and cross-checks
every fast-path result byte-for-byte against the reference output.  The
acceptance gate is a >=3x wall-time speedup on both generator
multiplication and full ``ecdsa_verify``; the ``ecdsa_verify-cold``,
``ecdsa_verify-repeat`` and ``ecdh`` rows are recorded, not gated.

The AEAD rows time AES-GCM against ``_ReferenceAesGcm``: 16x256 GHASH
tables and one ``encrypt_block`` per counter on the same ``AES`` key
schedule.  It is an oracle, not the previous code, so ``aead-setup``
(gated >=3x) compares the two GHASH keyings on top of that shared
schedule rather than the old and new set-up cost as a whole.  The fast
path keys GHASH in its first call, from the hash subkey that rides in
that call's keystream, so ``aead-setup`` times a construction plus one
16-byte record on each side.  A 4 KB encryption (``aead-bulk-4096``) is
gated >=3x.  Recorded ungated: a 128-byte record, a 16 KB record on one
long-lived key (``aead-bulk-16384``, a northbound session key's shape),
a 4 KB record under a fresh key per call (``aead-bulk-4096-fresh-key``,
a KMS seal's shape, where the fast path builds its GHASH byte tables and
repays them inside the call) and a fresh key carrying a 16-byte, a
100-byte and a 2-byte record (``aead-reconnect-short``, one side of a
resumed reconnect).  Every row cross-checks the ciphertext
byte-for-byte.

A further table tracks the streaming SHA-256 fix: doubling the message
size must roughly double (not quadruple) chunked-update time.  Each
sample hashes the message ``SHA_REPS`` times, so it lasts milliseconds
rather than one preemptible hash; each round times both sizes,
alternating which goes first, and the gate reads the median of the
per-round large/small ratios.
"""

import statistics
import time

import pytest

from repro.bench.harness import BenchReport, Table, smoke_mode, summarize
from repro.crypto.ec import P256
from repro.crypto.ecdsa import ecdsa_sign, ecdsa_verify, ecdsa_verify_reference
from repro.crypto.gcm import AesGcm, _ReferenceAesGcm
from repro.crypto.keys import generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.crypto.sha256 import SHA256
from repro.errors import InvalidSignature

# Smoke mode shrinks iteration counts; the assertions on speedup and
# byte-identity are the same either way.
ITERS = 6 if smoke_mode() else 25
BULK_ITERS = 2 if smoke_mode() else 6
ROUNDS = 5
#: Hashes per streaming SHA-256 sample: one 64-chunk hash takes well
#: under a millisecond, so a single preemption could decide its ratio.
SHA_REPS = 64
SPEEDUP_GATE = 3.0


def _timed_batch(fn, args_list):
    """Best-of-ROUNDS wall time for running ``fn`` over ``args_list``."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _scalars(label, count):
    rng = HmacDrbg(seed=f"e11-{label}".encode())
    return [rng.random_scalar(P256.n) for _ in range(count)]


@pytest.fixture(scope="module")
def e11_report():
    """One BENCH_E11.json for the EC and AEAD rows."""
    report = BenchReport("E11")
    yield report
    report.write()


@pytest.mark.experiment("E11")
def test_e11_crypto_hotpath(e11_report):
    report = e11_report
    curve = P256
    curve.reset_validation_cache()
    curve.stats.reset()

    # ------------------------------------------------ generator multiply
    scalars = _scalars("genmult", ITERS)
    # Cross-check first (also warms the comb table outside the timed run).
    for k in scalars:
        fast = curve.multiply_generator(k)
        ref = curve.multiply(k, curve.generator)
        assert curve.encode_point(fast) == curve.encode_point(ref)

    ref_s = _timed_batch(lambda k: curve.multiply(k, curve.generator),
                        [(k,) for k in scalars])
    fast_s = _timed_batch(curve.multiply_generator, [(k,) for k in scalars])
    gen_speedup = ref_s / fast_s

    # ------------------------------------------------ ecdsa verify
    rng = HmacDrbg(seed=b"e11-verify")
    key = generate_keypair(rng)
    cases = []
    for i in range(ITERS):
        message = b"e11 message %d" % i + rng.random_bytes(24)
        signature = ecdsa_sign(key.scalar, message)
        cases.append((key.public.point, message, signature))
    # Cross-check: fast and reference verifiers agree on good and bad input.
    for point, message, (r, s) in cases:
        ecdsa_verify(point, message, (r, s))
        ecdsa_verify_reference(point, message, (r, s))
        bad = ((r ^ 1) or 1, s)
        with pytest.raises(InvalidSignature):
            ecdsa_verify(point, message, bad)
        with pytest.raises(InvalidSignature):
            ecdsa_verify_reference(point, message, bad)

    # Best-of-ROUNDS re-verifies the same signatures, so the memo of
    # successful verifications is emptied per call: these rows time the
    # ladder, not a memo hit.
    def ladder_verify(point, message, signature):
        curve.reset_verified_signatures()
        ecdsa_verify(point, message, signature)

    ref_s2 = _timed_batch(ecdsa_verify_reference, cases)
    fast_s2 = _timed_batch(ladder_verify, cases)
    verify_speedup = ref_s2 / fast_s2

    # ------------------------------------------------ first-seen key
    # Every verify builds the key's tables: the per-point LRU is emptied
    # first, as for a key the process has not verified against before.
    # Cross-check: the dual multiply on a table miss matches the reference.
    point = key.public.point
    pairs = _scalars("cold", 2 * ITERS)
    for u1, u2 in zip(pairs[::2], pairs[1::2]):
        curve.reset_point_tables()
        assert (curve.encode_point(curve.multiply_dual(u1, u2, point))
                == curve.encode_point(
                    curve.multiply_dual_reference(u1, u2, point)))

    def cold_verify(point, message, signature):
        curve.reset_point_tables()
        curve.reset_verified_signatures()
        ecdsa_verify(point, message, signature)

    cold_s = _timed_batch(cold_verify, cases)

    # ------------------------------------------------ memo hit
    # The same signatures with the memo warm.  Cross-check: every hit
    # accepts, as the reference did above, and a bad signature still
    # fails on every call.
    for case in cases:
        ecdsa_verify(*case)
    hits = curve.stats.verify_memo_hits
    for point, message, (r, s) in cases:
        ecdsa_verify(point, message, (r, s))
        with pytest.raises(InvalidSignature):
            ecdsa_verify(point, message, ((r ^ 1) or 1, s))
    assert curve.stats.verify_memo_hits == hits + ITERS
    repeat_s = _timed_batch(ecdsa_verify, cases)

    # ------------------------------------------------ ECDH (k*Q)
    peers = [curve.multiply_generator(k) for k in _scalars("ecdh-peer", ITERS)]
    ecdh_args = list(zip(_scalars("ecdh", ITERS), peers))
    for k, peer in ecdh_args:
        assert (curve.encode_point(curve.multiply_point(k, peer))
                == curve.encode_point(curve.multiply(k, peer)))
    ecdh_ref_s = _timed_batch(curve.multiply, ecdh_args)
    ecdh_fast_s = _timed_batch(curve.multiply_point, ecdh_args)

    rows = [
        ("multiply_generator", ref_s, fast_s),
        ("ecdsa_verify", ref_s2, fast_s2),
        ("ecdsa_verify-cold", ref_s2, cold_s),
        ("ecdsa_verify-repeat", ref_s2, repeat_s),
        ("ecdh", ecdh_ref_s, ecdh_fast_s),
    ]
    table = Table(
        "E11: EC fast paths vs. reference ladder",
        ["op", "iters", "ref_ms", "fast_ms", "speedup"],
    )
    for name, ref_time, fast_time in rows:
        table.add_row(name, ITERS, ref_time * 1000, fast_time * 1000,
                      ref_time / fast_time)
        report.add(name, iterations=ITERS, reference_seconds=ref_time,
                   fast_seconds=fast_time, speedup=ref_time / fast_time)
    table.show()
    report.add_table(table)

    # Acceptance gate: the paper-scale experiments only get faster if
    # both hot operations beat the reference ladder by 3x.  A first-seen
    # key and ECDH pay a per-key table build and a full-length ladder, and
    # a memo hit runs no ladder at all; the three are recorded only.
    assert gen_speedup >= SPEEDUP_GATE, (
        f"generator multiply speedup {gen_speedup:.2f}x < {SPEEDUP_GATE}x"
    )
    assert verify_speedup >= SPEEDUP_GATE, (
        f"ecdsa_verify speedup {verify_speedup:.2f}x < {SPEEDUP_GATE}x"
    )

    # ------------------------------------------------ validation cache
    stats = curve.stats.snapshot()
    cache_table = Table(
        "E11: point-validation LRU (same key verified repeatedly)",
        ["metric", "value"],
    )
    for name in ("validation_cache_hits", "validation_cache_misses",
                 "order_checks_skipped", "dual_mults", "generator_mults"):
        cache_table.add_row(name, stats[name])
    cache_table.show()
    report.add_table(cache_table)

    # The repeated verifies above hit the same public key: exactly one
    # miss for it, everything after is a hit, and cofactor-1 P-256 never
    # pays the full-order multiply.
    assert stats["validation_cache_hits"] > stats["validation_cache_misses"]
    assert stats["order_checks_skipped"] >= 1
    assert stats["dual_mults"] >= ITERS

    report.add("validation_cache", **{k: stats[k] for k in stats})


@pytest.mark.experiment("E11")
def test_e11_aead_hotpath(e11_report):
    rng = HmacDrbg(seed=b"e11-aead")
    keys = [rng.random_bytes(16) for _ in range(ITERS)]
    nonce = rng.random_bytes(12)
    aad = rng.random_bytes(13)
    first = rng.random_bytes(16)

    # Key setup: one AEAD construction per fresh key, as every seal,
    # unseal and TLS key schedule pays, plus the key's first record,
    # which keys the fast path's GHASH.  Byte-identity: each key's
    # ciphertext from both constructions.
    def setup_ref(key):
        return _ReferenceAesGcm(key).encrypt(nonce, first, aad)

    def setup_fast(key):
        return AesGcm(key).encrypt(nonce, first, aad)

    for key in keys:
        assert setup_fast(key) == setup_ref(key)
    rows = [("aead-setup", len(keys),
             _timed_batch(setup_ref, [(key,) for key in keys]),
             _timed_batch(setup_fast, [(key,) for key in keys]))]

    # Bulk: one key, records of 4096, 16384 and 128 bytes.
    fast, ref = AesGcm(keys[0]), _ReferenceAesGcm(keys[0])
    for size in (4096, 16384, 128):
        records = [rng.random_bytes(size) for _ in range(BULK_ITERS)]
        for record in records:
            assert (fast.encrypt(nonce, record, aad)
                    == ref.encrypt(nonce, record, aad))
        args = [(nonce, record, aad) for record in records]
        rows.append((f"aead-bulk-{size}", len(records),
                     _timed_batch(ref.encrypt, args),
                     _timed_batch(fast.encrypt, args)))

    # A fresh key per 4 KB record, as every KMS seal and unseal keys its
    # own AEAD: set-up, the GHASH table build and the record in one call.
    def seal_ref(key, record):
        return _ReferenceAesGcm(key).encrypt(nonce, record, aad)

    def seal_fast(key, record):
        return AesGcm(key).encrypt(nonce, record, aad)

    fresh = [(rng.random_bytes(16), rng.random_bytes(4096))
             for _ in range(BULK_ITERS)]
    for key, record in fresh:
        assert seal_fast(key, record) == seal_ref(key, record)
    rows.append(("aead-bulk-4096-fresh-key", len(fresh),
                 _timed_batch(seal_ref, fresh),
                 _timed_batch(seal_fast, fresh)))

    # One side of a resumed reconnect: a fresh key carrying a 16-byte
    # Finished record, a ~100-byte request and a 2-byte record.
    def reconnect_ref(key, records):
        aead = _ReferenceAesGcm(key)
        return [aead.encrypt(nonce, record, aad) for record in records]

    def reconnect_fast(key, records):
        aead = AesGcm(key)
        return [aead.encrypt(nonce, record, aad) for record in records]

    short = [(key, [rng.random_bytes(size) for size in (16, 100, 2)])
             for key in keys]
    for key, records in short:
        assert reconnect_fast(key, records) == reconnect_ref(key, records)
    rows.append(("aead-reconnect-short", len(short),
                 _timed_batch(reconnect_ref, short),
                 _timed_batch(reconnect_fast, short)))

    table = Table(
        "E11: AES-GCM fast paths vs. reference oracles",
        ["op", "iters", "ref_ms", "fast_ms", "speedup"],
    )
    speedups = {}
    for name, iters, ref_s, fast_s in rows:
        speedups[name] = ref_s / fast_s
        table.add_row(name, iters, ref_s * 1000, fast_s * 1000,
                      speedups[name])
        e11_report.add(name, iterations=iters, reference_seconds=ref_s,
                       fast_seconds=fast_s, speedup=speedups[name])
    table.show()
    e11_report.add_table(table)

    # Gates: key setup and a 4 KB record.  A 128-byte record gains about
    # 2x (its GHASH and per-call costs are unchanged) and is recorded
    # only, as are the 16 KB, fresh-key and reconnect rows.
    for name in ("aead-setup", "aead-bulk-4096"):
        assert speedups[name] >= SPEEDUP_GATE, (
            f"{name} speedup {speedups[name]:.2f}x < {SPEEDUP_GATE}x"
        )


@pytest.mark.experiment("E11")
def test_e11_sha256_streaming_linear():
    """Chunked hashing is linear in input size after the buffering fix."""
    chunk = b"\xab" * 1024
    sizes = [64, 128] if smoke_mode() else [128, 256]  # in chunks

    def stream(n_chunks):
        h = SHA256()
        for _ in range(n_chunks):
            h.update(chunk)
        return h.digest()

    # Correctness against one-shot hashing.
    one_shot = SHA256()
    one_shot.update(chunk * sizes[0])
    assert stream(sizes[0]) == one_shot.digest()

    samples = {n: [] for n in sizes}  # seconds per hash, one per round
    for round_index in range(ROUNDS):
        order = sizes[::-1] if round_index % 2 else sizes
        for n in order:
            start = time.perf_counter()
            for _ in range(SHA_REPS):
                stream(n)
            samples[n].append((time.perf_counter() - start) / SHA_REPS)

    round_ratios = [large / small for small, large
                    in zip(samples[sizes[0]], samples[sizes[1]])]
    ratio = statistics.median(round_ratios)
    small = statistics.median(samples[sizes[0]])
    large = statistics.median(samples[sizes[1]])

    table = Table(
        "E11: streaming SHA-256 scaling (2x input)",
        ["chunks_small", "chunks_large", "t_small_ms", "t_large_ms", "ratio"],
    )
    table.add_row(sizes[0], sizes[1], small * 1000, large * 1000, ratio)
    table.show()

    report = BenchReport("E11_SHA256")
    report.add("sha256_streaming", chunks_small=sizes[0],
               chunks_large=sizes[1], repetitions=SHA_REPS,
               wall=summarize(samples[sizes[1]]), ratio=ratio,
               round_ratios=round_ratios)
    report.add_table(table)
    report.write()

    # O(n^2) buffering made doubling the input ~4x the time; linear
    # hashing keeps the ratio near 2 (generous bound for noisy CI).
    assert ratio < 3.2, (
        f"doubling input scaled time by {ratio:.2f}x in the median of "
        f"{ROUNDS} rounds")
