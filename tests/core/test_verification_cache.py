"""Verification cache: memoised IAS verdicts for RA-TLS quotes.

Unit tests pin the :class:`~repro.core.verification_cache.VerificationCache`
contract (LRU bounds, subject/predicate invalidation, counter semantics).
Integration tests drive the Verification Manager's RA-TLS evidence hook
with real quotes and prove (a) a replayed quote skips the IAS round trip,
(b) the binding and verdict checks still run on a cache hit — a poisoned
cache cannot launder a mismatched AVR — (c) revocation (``revoke_vnf`` /
``distrust_host``) flushes exactly the affected subjects' verdicts, and
(d) Figure 1's nonced attestations never touch the memo.
"""

import pytest

from repro.core import Deployment
from repro.core.verification_cache import VerificationCache
from repro.errors import AttestationFailed


class _FakeAvr:
    """Stand-in verdict; the cache never introspects what it stores."""

    def __init__(self, tag):
        self.tag = tag


# ------------------------------------------------------------------ unit


def test_store_then_lookup_hits_and_counts():
    cache = VerificationCache(capacity=4)
    avr = _FakeAvr("a")
    assert cache.lookup(b"quote") is None
    cache.store(b"quote", "vnf-1", avr)
    assert cache.lookup(b"quote") is avr
    assert cache.lookup(b"other-quote") is None
    assert (cache.hits, cache.misses) == (1, 2)
    assert len(cache) == 1


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        VerificationCache(capacity=0)


def test_lru_eviction_at_capacity():
    cache = VerificationCache(capacity=2)
    cache.store(b"q1", "s", _FakeAvr(1))
    cache.store(b"q2", "s", _FakeAvr(2))
    # Touch q1 so q2 becomes the LRU-oldest entry.
    assert cache.lookup(b"q1") is not None
    cache.store(b"q3", "s", _FakeAvr(3))
    assert len(cache) == 2
    assert cache.lookup(b"q2") is None   # evicted
    assert cache.lookup(b"q1") is not None
    assert cache.lookup(b"q3") is not None


def test_restoring_existing_key_does_not_evict():
    cache = VerificationCache(capacity=2)
    cache.store(b"q1", "s", _FakeAvr(1))
    cache.store(b"q2", "s", _FakeAvr(2))
    fresh = _FakeAvr("fresh")
    cache.store(b"q1", "s", fresh)       # overwrite, not insert
    assert len(cache) == 2
    assert cache.lookup(b"q1") is fresh
    assert cache.lookup(b"q2") is not None


def test_invalidate_subject_and_where():
    cache = VerificationCache(capacity=8)
    cache.store(b"q1", "vnf-2", _FakeAvr(1))
    cache.store(b"q2", "vnf-1", _FakeAvr(2))
    cache.store(b"q3", "vnf-1", _FakeAvr(3))
    assert cache.invalidate_subject("vnf-1") == 2
    assert cache.invalidate_subject("vnf-1") == 0
    assert len(cache) == 1
    assert cache.invalidate_where(lambda e: e.subject.endswith("-2")) == 1
    assert len(cache) == 0


def test_clear_keeps_counters():
    cache = VerificationCache(capacity=4)
    cache.store(b"q", "s", _FakeAvr("a"))
    cache.lookup(b"q")
    cache.lookup(b"zzz")
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


def _ratls_quote(deployment, vnf_name="vnf-1"):
    """A real RA-TLS quote: it binds a fresh in-enclave leaf key and no
    nonce, so the VM may see these exact bytes again."""
    return deployment.credential_enclaves[vnf_name].ratls_begin(
        deployment.vm.policy.basename
    )


def _subjects(cache):
    return sorted(entry.subject for entry in cache._entries.values())


def test_replayed_evidence_skips_ias_round_trip(deployment):
    vm = deployment.vm
    counting = _CountingIas(vm._ias)
    vm._ias = counting
    quote = _ratls_quote(deployment)

    vm.verify_ratls_evidence(quote, "vnf-1")
    assert counting.calls == 1
    assert (vm.verification_cache.hits, vm.verification_cache.misses) == (0, 1)

    # Byte-identical quote: verdict served from the memo, no IAS traffic.
    vm.verify_ratls_evidence(quote, "vnf-1")
    assert counting.calls == 1
    assert vm.verification_cache.hits == 1

    # A quote over a new leaf key is new evidence: IAS again.
    vm.verify_ratls_evidence(_ratls_quote(deployment), "vnf-1")
    assert counting.calls == 2


def test_binding_check_runs_even_on_cache_hit(deployment):
    # Poison the cache: a verdict for quote A stored under quote B's key
    # must still be rejected by the unconditional body-binding check.
    vm = deployment.vm
    quote_a = _ratls_quote(deployment)
    vm.verify_ratls_evidence(quote_a, "vnf-1")
    avr_a = vm.verification_cache.lookup(quote_a.to_bytes())
    assert avr_a is not None

    quote_b = _ratls_quote(deployment)
    vm.verification_cache.store(quote_b.to_bytes(), "vnf-1", avr_a)
    with pytest.raises(AttestationFailed, match="different quote body"):
        vm.verify_ratls_evidence(quote_b, "vnf-1")


def test_rejected_verdicts_are_never_cached(deployment):
    vm = deployment.vm
    deployment.ias.revoke_platform(deployment.vnf_host["vnf-1"].name)
    quote = _ratls_quote(deployment)
    for _ in range(2):
        with pytest.raises(AttestationFailed):
            vm.verify_ratls_evidence(quote, "vnf-1")
    assert len(vm.verification_cache) == 0
    assert vm.verification_cache.hits == 0
    assert vm.verification_cache.misses == 2  # second try re-faced IAS


def test_revoke_vnf_flushes_only_that_subject(two_vnf_deployment):
    deployment = two_vnf_deployment
    deployment.build_ratls()
    deployment.enroll_ratls("vnf-1")
    deployment.enroll_ratls("vnf-2")
    cache = deployment.vm.verification_cache
    assert _subjects(cache) == ["vnf-1", "vnf-2"]
    deployment.vm.revoke_vnf("vnf-1")
    assert _subjects(cache) == ["vnf-2"]


def test_distrust_host_flushes_every_subject_it_revoked():
    # vnf-1 (both ways) and vnf-3 (RA-TLS) run on host 1, vnf-2 on host 2.
    deployment = Deployment(seed=b"cache-distrust", vnf_count=3,
                            host_count=2)
    deployment.build_ratls()
    for name in deployment.vnf_names:
        deployment.enroll_ratls(name)
    deployment.enroll("vnf-1")
    cache = deployment.vm.verification_cache
    assert _subjects(cache) == ["vnf-1", "vnf-2", "vnf-3"]
    host = deployment.vnf_host["vnf-1"].name
    assert deployment.vnf_host["vnf-3"].name == host
    # vnf-1 is revoked as a CA-issued credential, vnf-3 as an RA-TLS
    # identity; one flush covers both.
    assert deployment.vm.distrust_host(host) == ["vnf-1", "vnf-3"]
    assert _subjects(cache) == ["vnf-2"]


def test_telemetry_counts_cache_hits_and_misses(deployment):
    telemetry = deployment.enable_telemetry(serve=False)
    vm = deployment.vm
    quote = _ratls_quote(deployment)
    vm.verify_ratls_evidence(quote, "vnf-1")
    vm.verify_ratls_evidence(quote, "vnf-1")
    events = telemetry.verification_cache_events
    assert events.labels(result="miss").value == 1
    assert events.labels(result="hit").value == 1


# ------------------------------------------------------------------ flows


def test_figure1_paths_never_touch_the_memo(two_vnf_deployment):
    deployment = two_vnf_deployment
    telemetry = deployment.enable_telemetry(serve=False)
    deployment.run_workflow()
    deployment.enroll_fleet(workers=4)
    deployment.enroll("vnf-1", csr=True)
    cache = deployment.vm.verification_cache
    assert len(cache) == 0
    assert (cache.hits, cache.misses) == (0, 0)
    assert telemetry.verification_cache_events.children() == []
