"""Caching of IAS verification verdicts by evidence digest.

The Verification Manager's single most expensive external dependency is
the IAS round trip (quote out, signed AVR back, AVR signature check).  A
retry storm — an enrollment session re-driving ``attest → issue →
provision`` after a provisioning fault, or an operator hammering a flaky
workflow — re-submits *byte-identical* evidence: the same quote bound to
the same nonce.  IAS's verdict for identical bytes is deterministic until
revocation state changes, so re-verifying buys nothing but latency.

:class:`VerificationCache` memoises successful verdicts keyed by
``SHA-256(len(quote) || quote || nonce)``.  Only ``ok`` verdicts for
checked evidence are stored (a rejection is cheap to reproduce and must
never be cached past an operator fixing the platform).  Entries carry the
*subject* (host or VNF name) they verified so revocation can evict them:
:meth:`invalidate_subject` and the :meth:`invalidate_where` predicate
sweep mirror :meth:`repro.tls.session.SessionCache.invalidate_where` —
the same "a cache that bypasses verification must be flushed by
revocation" rule the TLS resumption cache follows.

The cache is bounded (LRU) and optionally time-limited via ``max_age``
(simulated seconds), so stale verdicts age out even without an explicit
revocation event.

All operations (lookup-and-promote, store-and-evict, predicate sweeps,
hit/miss accounting) run under one internal lock so concurrent fleet
enrollments never tear the LRU order or lose an eviction; see
``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.sanitizer import make_rlock, shared_state
from repro.crypto.sha256 import sha256
from repro.ias.report import AttestationVerificationReport


@dataclass
class CachedVerdict:
    """One memoised IAS verdict.

    Attributes:
        subject: the host/VNF name the evidence attested (eviction key).
        avr: the signed report IAS returned (already signature-checked).
        stored_at: simulated time of the original verification.
    """

    subject: str
    avr: AttestationVerificationReport
    stored_at: float


def evidence_key(quote_bytes: bytes, nonce: str) -> bytes:
    """Digest identifying one (quote, nonce) evidence pair.

    Length-prefixing the quote keeps the concatenation injective — a
    quote ending in nonce-like bytes cannot collide with a shorter quote
    plus a longer nonce.
    """
    prefix = len(quote_bytes).to_bytes(8, "big")
    return sha256(prefix + quote_bytes + nonce.encode("utf-8"))


@shared_state("_entries")
class VerificationCache:
    """Bounded LRU of successful IAS verdicts, keyed by evidence digest."""

    def __init__(self, now: Callable[[], float], capacity: int = 1024,
                 max_age: Optional[float] = None) -> None:
        if capacity <= 0:
            raise ValueError("verification cache capacity must be positive")
        self.capacity = capacity
        self.max_age = max_age
        self._now = now
        self._entries: "OrderedDict[bytes, CachedVerdict]" = OrderedDict()
        self._lock = make_rlock("cache")
        self.hits = 0
        self.misses = 0

    # --------------------------------------------------------------- lookup

    def lookup(self, quote_bytes: bytes,
               nonce: str) -> Optional[AttestationVerificationReport]:
        """The cached AVR for byte-identical evidence, or ``None``.

        Expired entries (``max_age``) are dropped on access.
        """
        key = evidence_key(quote_bytes, nonce)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self.max_age is not None \
                    and self._now() - entry.stored_at > self.max_age:
                del self._entries[key]
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.avr

    def store(self, quote_bytes: bytes, nonce: str, subject: str,
              avr: AttestationVerificationReport) -> None:
        """Memoise a *successful* verdict; evicts LRU-oldest when full."""
        key = evidence_key(quote_bytes, nonce)
        with self._lock:
            if (key not in self._entries
                    and len(self._entries) >= self.capacity):
                self._entries.popitem(last=False)
            self._entries[key] = CachedVerdict(subject, avr, self._now())
            self._entries.move_to_end(key)

    # ----------------------------------------------------------- eviction

    def invalidate_subject(self, subject: str) -> int:
        """Drop every verdict obtained for ``subject``; returns the count.

        Called on revocation: a distrusted host (or revoked VNF) must not
        keep a cached "trustworthy" verdict that would let a retry skip
        re-verification against the *new* revocation state.
        """
        return self.invalidate_where(lambda entry: entry.subject == subject)

    def invalidate_where(self, predicate: Callable[[CachedVerdict], bool]
                         ) -> int:
        """Drop every entry matching ``predicate``; returns the count.

        Same pattern as :meth:`repro.tls.session.SessionCache.
        invalidate_where`: the predicate sees the full cached entry.
        """
        with self._lock:
            doomed = [key for key, entry in self._entries.items()
                      if predicate(entry)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        """Drop everything (hit/miss counters survive)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
