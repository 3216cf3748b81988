"""Verification cache: memoised IAS verdicts for byte-identical evidence.

Unit tests pin the :class:`~repro.core.verification_cache.VerificationCache`
contract (LRU bounds, ``max_age`` expiry, subject/predicate invalidation,
counter semantics, evidence-key injectivity).  Integration tests drive the
Verification Manager with captured real evidence and prove (a) a replayed
quote+nonce pair skips the IAS round trip, (b) the binding and verdict
checks still run on a cache hit — a poisoned cache cannot launder a
mismatched AVR — and (c) revocation (``revoke_vnf`` / ``distrust_host``)
flushes exactly the affected subjects' verdicts.
"""

import pytest

from repro.core.verification_cache import VerificationCache, evidence_key
from repro.errors import AttestationFailed


class _FakeAvr:
    """Stand-in verdict; the cache never introspects what it stores."""

    def __init__(self, tag):
        self.tag = tag


class _Clock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


# ------------------------------------------------------------------ unit


def test_store_then_lookup_hits_and_counts():
    cache = VerificationCache(_Clock().now, capacity=4)
    avr = _FakeAvr("a")
    assert cache.lookup(b"quote", "nonce") is None
    cache.store(b"quote", "nonce", "host-1", avr)
    assert cache.lookup(b"quote", "nonce") is avr
    assert cache.lookup(b"quote", "other-nonce") is None
    assert cache.lookup(b"other-quote", "nonce") is None
    assert (cache.hits, cache.misses) == (1, 3)
    assert len(cache) == 1


def test_evidence_key_is_injective_across_the_split():
    # Length prefix: moving bytes between quote and nonce changes the key.
    assert evidence_key(b"ab", "c") != evidence_key(b"a", "bc")
    assert evidence_key(b"", "abc") != evidence_key(b"abc", "")
    assert evidence_key(b"q", "n") != evidence_key(b"q", "m")
    assert evidence_key(b"q", "n") != evidence_key(b"r", "n")
    assert evidence_key(b"q", "n") == evidence_key(b"q", "n")


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        VerificationCache(_Clock().now, capacity=0)


def test_lru_eviction_at_capacity():
    cache = VerificationCache(_Clock().now, capacity=2)
    cache.store(b"q1", "n", "s", _FakeAvr(1))
    cache.store(b"q2", "n", "s", _FakeAvr(2))
    # Touch q1 so q2 becomes the LRU-oldest entry.
    assert cache.lookup(b"q1", "n") is not None
    cache.store(b"q3", "n", "s", _FakeAvr(3))
    assert len(cache) == 2
    assert cache.lookup(b"q2", "n") is None   # evicted
    assert cache.lookup(b"q1", "n") is not None
    assert cache.lookup(b"q3", "n") is not None


def test_restoring_existing_key_does_not_evict():
    cache = VerificationCache(_Clock().now, capacity=2)
    cache.store(b"q1", "n", "s", _FakeAvr(1))
    cache.store(b"q2", "n", "s", _FakeAvr(2))
    fresh = _FakeAvr("fresh")
    cache.store(b"q1", "n", "s", fresh)       # overwrite, not insert
    assert len(cache) == 2
    assert cache.lookup(b"q1", "n") is fresh
    assert cache.lookup(b"q2", "n") is not None


def test_max_age_expiry_drops_on_access():
    clock = _Clock()
    cache = VerificationCache(clock.now, capacity=4, max_age=10.0)
    cache.store(b"q", "n", "s", _FakeAvr("a"))
    clock.t = 9.0
    assert cache.lookup(b"q", "n") is not None
    clock.t = 20.0
    assert cache.lookup(b"q", "n") is None    # expired -> miss
    assert len(cache) == 0                    # dropped, not just hidden
    assert (cache.hits, cache.misses) == (1, 1)


def test_invalidate_subject_and_where():
    cache = VerificationCache(_Clock().now, capacity=8)
    cache.store(b"q1", "n", "host-1", _FakeAvr(1))
    cache.store(b"q2", "n", "vnf-1", _FakeAvr(2))
    cache.store(b"q3", "n", "vnf-1", _FakeAvr(3))
    assert cache.invalidate_subject("vnf-1") == 2
    assert cache.invalidate_subject("vnf-1") == 0
    assert len(cache) == 1
    assert cache.invalidate_where(lambda e: e.subject.startswith("host")) == 1
    assert len(cache) == 0


def test_clear_keeps_counters():
    cache = VerificationCache(_Clock().now, capacity=4)
    cache.store(b"q", "n", "s", _FakeAvr("a"))
    cache.lookup(b"q", "n")
    cache.lookup(b"zzz", "n")
    cache.clear()
    assert len(cache) == 0
    assert (cache.hits, cache.misses) == (1, 1)


# ------------------------------------------------------------ integration


class _CountingIas:
    """Wraps the VM's IAS client, counting ``verify_quote`` round trips."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def verify_quote(self, quote_bytes, nonce):
        self.calls += 1
        return self._inner.verify_quote(quote_bytes, nonce=nonce)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _captured_evidence(deployment):
    """A real (quote, nonce) pair, collected outside the VM (the VM's own
    flows draw a fresh DRBG nonce per attestation, so byte-identical
    replays only occur on *retries* — which tests drive explicitly)."""
    nonce = b"\x42" * 16
    evidence = deployment.agent_client.attest_host(
        nonce, deployment.vm.policy.basename
    )
    return evidence.quote, nonce


def test_replayed_evidence_skips_ias_round_trip(deployment):
    vm = deployment.vm
    counting = _CountingIas(vm._ias)
    vm._ias = counting
    quote, nonce = _captured_evidence(deployment)

    vm._verify_quote_with_ias(quote, nonce, deployment.host.name)
    assert counting.calls == 1
    assert vm.verification_cache.misses >= 1
    hits_before = vm.verification_cache.hits

    # Byte-identical retry: verdict served from cache, no IAS traffic.
    vm._verify_quote_with_ias(quote, nonce, deployment.host.name)
    assert counting.calls == 1
    assert vm.verification_cache.hits == hits_before + 1

    # Different nonce over the same quote is new evidence: IAS again.
    other_nonce = b"\x43" * 16
    other = deployment.agent_client.attest_host(other_nonce,
                                                vm.policy.basename)
    vm._verify_quote_with_ias(other.quote, other_nonce,
                              deployment.host.name)
    assert counting.calls == 2


def test_binding_check_runs_even_on_cache_hit(deployment):
    # Poison the cache: a verdict for quote A stored under quote B's key
    # must still be rejected by the unconditional body-binding check.
    vm = deployment.vm
    quote_a, nonce_a = _captured_evidence(deployment)
    vm._verify_quote_with_ias(quote_a, nonce_a, deployment.host.name)
    avr_a = vm.verification_cache.lookup(quote_a.to_bytes(), nonce_a.hex())
    assert avr_a is not None

    nonce_b = b"\x99" * 16
    quote_b = deployment.agent_client.attest_host(
        nonce_b, vm.policy.basename
    ).quote
    vm.verification_cache.store(quote_b.to_bytes(), nonce_b.hex(),
                                deployment.host.name, avr_a)
    with pytest.raises(AttestationFailed, match="different quote body"):
        vm._verify_quote_with_ias(quote_b, nonce_b, deployment.host.name)


def test_rejected_verdicts_are_never_cached(deployment):
    vm = deployment.vm
    deployment.ias.revoke_platform(deployment.host.name)
    quote, nonce = _captured_evidence(deployment)
    for _ in range(2):
        with pytest.raises(AttestationFailed):
            vm._verify_quote_with_ias(quote, nonce, deployment.host.name)
    assert len(vm.verification_cache) == 0
    assert vm.verification_cache.hits == 0
    assert vm.verification_cache.misses == 2  # second try re-faced IAS


def test_revoke_vnf_flushes_only_that_subject(deployment):
    deployment.enroll("vnf-1")
    vm = deployment.vm
    cache = vm.verification_cache
    subjects = {entry.subject for entry in cache._entries.values()}
    assert "vnf-1" in subjects
    assert deployment.host.name in subjects
    vm.revoke_vnf("vnf-1")
    remaining = {entry.subject for entry in cache._entries.values()}
    assert "vnf-1" not in remaining
    assert deployment.host.name in remaining  # host verdict untouched


def test_distrust_host_flushes_host_and_its_vnfs(deployment):
    deployment.enroll("vnf-1")
    vm = deployment.vm
    assert len(vm.verification_cache) >= 2   # host + vnf verdicts
    vm.distrust_host(deployment.host.name)
    assert len(vm.verification_cache) == 0


def test_telemetry_counts_cache_hits_and_misses(deployment):
    telemetry = deployment.enable_telemetry(serve=False)
    vm = deployment.vm
    quote, nonce = _captured_evidence(deployment)
    vm._verify_quote_with_ias(quote, nonce, deployment.host.name)
    vm._verify_quote_with_ias(quote, nonce, deployment.host.name)
    events = telemetry.verification_cache_events
    assert events.labels(result="miss").value >= 1
    assert events.labels(result="hit").value == 1
