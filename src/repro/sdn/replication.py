"""The replicated CA-cert keystore: log entries and the state machine.

TruSDN-scale control planes (PAPERS.md: *TruSDN*, *Trust Anchors in
SDN*) replace the paper's single controller with N replicas that must
agree on which credentials are trusted, which are revoked, and which
hosts are distrusted.  This module provides the two replicated pieces:

- :class:`ReplicationLog` — an append-only, contiguously indexed log of
  :class:`LogEntry` records.  The fabric leader assigns indexes and
  ships suffixes to followers; a follower that detects a gap asks for
  the missing suffix (see :mod:`repro.sdn.fabric`).
- :class:`FabricKeystore` — the deterministic state machine every
  replica folds its log into: trust anchors, credential certificates
  (by subject), the revoked-subject set and the distrusted-host set.
  Applying the same log prefix on any replica yields byte-identical
  state, which :meth:`FabricKeystore.digest` makes checkable in one
  comparison.

Both classes guard their state with non-reentrant leaf locks (domains
``fabric_log`` and ``fabric_keystore`` in ``docs/CONCURRENCY.md``); no
code path calls out of the module while holding either.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.analysis.sanitizer import make_lock, shared_state
from repro.errors import ReplicationError

#: Entry kinds — the complete vocabulary of replicated operations.
K_ANCHOR = "anchor"            # install a CA trust anchor
K_CREDENTIAL = "credential"    # record an issued credential certificate
K_REVOKE = "revoke-subject"    # revoke one subject's credential
K_DISTRUST = "distrust-host"   # distrust a host + everything homed on it


@dataclass(frozen=True)
class LogEntry:
    """One replicated operation.

    Attributes:
        index: 1-based, contiguous position in the log.
        kind: one of the ``K_*`` constants.
        subject: the credential subject or host name the entry targets.
        payload: kind-specific bytes (certificate DER for anchors and
            credentials; for credentials, prefixed by the issuing host
            name and a NUL — see :meth:`credential_payload`).
    """

    index: int
    kind: str
    subject: str
    payload: bytes = b""

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe dict for the replication protocol."""
        return {
            "index": self.index,
            "kind": self.kind,
            "subject": self.subject,
            "payload": self.payload.hex(),
        }

    @staticmethod
    def from_wire(data: Dict[str, object]) -> "LogEntry":
        try:
            return LogEntry(
                index=int(data["index"]),
                kind=str(data["kind"]),
                subject=str(data["subject"]),
                payload=bytes.fromhex(str(data["payload"])),
            )
        except (KeyError, ValueError) as exc:
            raise ReplicationError(f"malformed log entry: {exc}") from exc


def credential_payload(host: str, certificate: bytes) -> bytes:
    """Encode a credential entry's payload: ``host || NUL || cert``.

    The host rides along so :data:`K_DISTRUST` can revoke every
    credential enrolled on a host deterministically from log state
    alone, with no out-of-band host index.
    """
    if "\x00" in host:
        raise ReplicationError("host name must not contain NUL")
    return host.encode("utf-8") + b"\x00" + certificate


def split_credential_payload(payload: bytes) -> "tuple[str, bytes]":
    """Inverse of :func:`credential_payload`."""
    host, sep, certificate = payload.partition(b"\x00")
    if not sep:
        raise ReplicationError("credential payload missing host prefix")
    return host.decode("utf-8"), certificate


@shared_state("_entries")
class ReplicationLog:
    """Append-only, contiguously indexed operation log (one per replica)."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []
        self._lock = make_lock("fabric_log")

    def append(self, kind: str, subject: str,
               payload: bytes = b"") -> LogEntry:
        """Leader-side append: assign the next index and store the entry."""
        with self._lock:
            entry = LogEntry(len(self._entries) + 1, kind, subject,
                             bytes(payload))
            self._entries.append(entry)
            return entry

    def extend(self, entries: List[LogEntry]) -> int:
        """Follower-side append of a contiguous suffix.

        Entries at or below the current last index must be byte-identical
        to what the log already holds (idempotent redelivery); a gap
        raises :class:`~repro.errors.ReplicationError`.  Returns the new
        last index.
        """
        with self._lock:
            for entry in entries:
                if entry.index <= len(self._entries):
                    existing = self._entries[entry.index - 1]
                    if existing != entry:
                        raise ReplicationError(
                            f"log divergence at index {entry.index}: "
                            f"{existing.kind}/{existing.subject} vs "
                            f"{entry.kind}/{entry.subject}"
                        )
                    continue
                if entry.index != len(self._entries) + 1:
                    raise ReplicationError(
                        f"log gap: have {len(self._entries)} entries, "
                        f"got index {entry.index}"
                    )
                self._entries.append(entry)
            return len(self._entries)

    @property
    def last_index(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries_after(self, index: int) -> List[LogEntry]:
        """The suffix strictly after ``index`` (for follower catch-up)."""
        with self._lock:
            return self._entries[index:]

    def entry(self, index: int) -> LogEntry:
        with self._lock:
            if not 1 <= index <= len(self._entries):
                raise ReplicationError(f"no log entry at index {index}")
            return self._entries[index - 1]


@shared_state("_anchors", "_credentials", "_credential_hosts",
              "_revoked", "_distrusted_hosts", "_applied_index")
class FabricKeystore:
    """The replicated trust state one replica derives from its log.

    Pure state machine: :meth:`apply` consumes log entries in index
    order and every transition is a deterministic function of (state,
    entry), so replicas that applied the same prefix hold identical
    state — :meth:`digest` hashes a canonical serialization to make
    that testable in one comparison (gated in experiment E15).
    """

    def __init__(self) -> None:
        self._anchors: Dict[str, bytes] = {}
        self._credentials: Dict[str, bytes] = {}
        self._credential_hosts: Dict[str, str] = {}
        self._revoked: Set[str] = set()
        self._distrusted_hosts: Set[str] = set()
        self._applied_index = 0
        self._lock = make_lock("fabric_keystore")

    # -------------------------------------------------------------- applying

    def apply(self, entry: LogEntry) -> List[str]:
        """Fold one log entry into the state.

        Entries must arrive in index order (redelivered ones are
        ignored).  Returns the subjects *newly revoked* by this entry —
        the fan-out set the fabric pushes to switches: ``[subject]`` for
        :data:`K_REVOKE`, every credential homed on the host for
        :data:`K_DISTRUST`, else ``[]``.
        """
        with self._lock:
            if entry.index <= self._applied_index:
                return []
            if entry.index != self._applied_index + 1:
                raise ReplicationError(
                    f"keystore applied {self._applied_index} entries, "
                    f"cannot apply index {entry.index}"
                )
            self._applied_index = entry.index
            if entry.kind == K_ANCHOR:
                self._anchors[entry.subject] = entry.payload
                return []
            if entry.kind == K_CREDENTIAL:
                host, certificate = split_credential_payload(entry.payload)
                self._credentials[entry.subject] = certificate
                self._credential_hosts[entry.subject] = host
                if host in self._distrusted_hosts:
                    # Late enrollment on an already-distrusted host: the
                    # state machine revokes it on arrival, on every
                    # replica, with no extra round trip.
                    self._revoked.add(entry.subject)
                    return [entry.subject]
                return []
            if entry.kind == K_REVOKE:
                newly = [] if entry.subject in self._revoked else [entry.subject]
                self._revoked.add(entry.subject)
                return newly
            if entry.kind == K_DISTRUST:
                self._distrusted_hosts.add(entry.subject)
                newly = sorted(
                    subject
                    for subject, host in self._credential_hosts.items()
                    if host == entry.subject and subject not in self._revoked
                )
                self._revoked.update(newly)
                return newly
            raise ReplicationError(f"unknown entry kind {entry.kind!r}")

    # --------------------------------------------------------------- queries

    @property
    def applied_index(self) -> int:
        with self._lock:
            return self._applied_index

    def credential(self, subject: str) -> Optional[bytes]:
        """The replicated certificate bytes for ``subject`` (or None)."""
        with self._lock:
            return self._credentials.get(subject)

    def is_revoked(self, subject: str) -> bool:
        with self._lock:
            return subject in self._revoked

    def is_distrusted(self, host: str) -> bool:
        with self._lock:
            return host in self._distrusted_hosts

    def revoked_subjects(self) -> Set[str]:
        with self._lock:
            return set(self._revoked)

    def anchor(self, name: str) -> Optional[bytes]:
        with self._lock:
            return self._anchors.get(name)

    def counts(self) -> Dict[str, int]:
        """Size summary for status endpoints."""
        with self._lock:
            return {
                "anchors": len(self._anchors),
                "credentials": len(self._credentials),
                "revoked": len(self._revoked),
                "distrustedHosts": len(self._distrusted_hosts),
                "appliedIndex": self._applied_index,
            }

    def digest(self) -> bytes:
        """SHA-256 over a canonical serialization of the whole state.

        Two replicas that applied the same log prefix produce the same
        digest; E15 gates on all live replicas agreeing after failover.
        """
        with self._lock:
            canonical = json.dumps({
                "anchors": {k: v.hex()
                            for k, v in sorted(self._anchors.items())},
                "credentials": {k: v.hex()
                                for k, v in sorted(self._credentials.items())},
                "hosts": dict(sorted(self._credential_hosts.items())),
                "revoked": sorted(self._revoked),
                "distrusted": sorted(self._distrusted_hosts),
                "applied": self._applied_index,
            }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).digest()


__all__ = [
    "K_ANCHOR",
    "K_CREDENTIAL",
    "K_DISTRUST",
    "K_REVOKE",
    "FabricKeystore",
    "LogEntry",
    "ReplicationLog",
    "credential_payload",
    "split_credential_payload",
]
