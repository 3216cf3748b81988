"""Memo of IAS verdicts for RA-TLS quotes.

An RA-TLS certificate's quote binds the certificate's key, not a
verifier's nonce, so the Verification Manager sees the same quote bytes
whenever that enclave handshakes in full again: after it restores its
sealed credentials, or after the server evicted its session.  IAS's
verdict for identical bytes holds until revocation changes it.  Figure
1's attestations (steps 1-4) never come here: each draws a fresh nonce.

:class:`VerificationCache` keeps successful verdicts only, keyed by the
quote bytes, each under the *subject* it verified so that revocation
can evict it (:meth:`invalidate_subject`, :meth:`invalidate_where`):
the "a cache that bypasses verification must be flushed by revocation"
rule of :meth:`repro.tls.session.SessionCache.invalidate_where`.  It is
an LRU with no age limit, because the :class:`~repro.tls.ratls.RatlsVerifier`
checks the certificate's validity window and the revocation denylist
before it reaches the memo.

One internal lock covers every operation, so concurrent handshakes never
tear the LRU order or lose an eviction; see ``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.sanitizer import make_rlock, shared_state
from repro.ias.report import AttestationVerificationReport


@dataclass
class CachedVerdict:
    """One memoised IAS verdict.

    Attributes:
        subject: the identity the quote attested (eviction key).
        avr: the signed report IAS returned (already signature-checked).
    """

    subject: str
    avr: AttestationVerificationReport


@shared_state("_entries")
class VerificationCache:
    """Bounded LRU of successful IAS verdicts, keyed by quote bytes."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("verification cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, CachedVerdict]" = OrderedDict()
        self._lock = make_rlock("cache")
        self.hits = 0
        self.misses = 0

    # --------------------------------------------------------------- lookup

    def lookup(self, quote_bytes: bytes
               ) -> Optional[AttestationVerificationReport]:
        """The cached AVR for a byte-identical quote, or ``None``."""
        with self._lock:
            entry = self._entries.get(quote_bytes)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(quote_bytes)
            self.hits += 1
            return entry.avr

    def store(self, quote_bytes: bytes, subject: str,
              avr: AttestationVerificationReport) -> None:
        """Memoise a *successful* verdict; evicts LRU-oldest when full."""
        with self._lock:
            if (quote_bytes not in self._entries
                    and len(self._entries) >= self.capacity):
                self._entries.popitem(last=False)
            self._entries[quote_bytes] = CachedVerdict(subject, avr)
            self._entries.move_to_end(quote_bytes)

    # ----------------------------------------------------------- eviction

    def invalidate_subject(self, subject: str) -> int:
        """Drop every verdict obtained for ``subject``; returns the count.

        Called on revocation: a revoked identity must not keep a cached
        "trustworthy" verdict that would let a later handshake skip
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
