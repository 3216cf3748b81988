"""The Verification Manager's audit log.

Every trust decision — attestation verdicts, appraisal failures, credential
issuance and revocation — is recorded with its simulated timestamp, so
operators (and tests) can reconstruct why a VNF does or does not hold
credentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.sanitizer import make_lock
from repro.net.clock import VirtualClock

EVENT_HOST_ATTESTED = "host-attested"
EVENT_HOST_REJECTED = "host-rejected"
EVENT_VNF_ATTESTED = "vnf-attested"
EVENT_VNF_REJECTED = "vnf-rejected"
EVENT_CREDENTIAL_ISSUED = "credential-issued"
EVENT_CREDENTIAL_PROVISIONED = "credential-provisioned"
EVENT_CREDENTIAL_REVOKED = "credential-revoked"
EVENT_PLATFORM_REVOKED = "platform-revoked"
EVENT_APPRAISAL_FAILED = "appraisal-failed"
EVENT_ENROLLMENT_COMPLETE = "enrollment-complete"


@dataclass(frozen=True)
class AuditEvent:
    """One audit record."""

    kind: str
    subject: str
    timestamp: float
    details: str = ""


class AuditLog:
    """Append-only event store with simple querying.

    Every recorded event is stamped with ``clock.now()`` and counted in
    the clock's telemetry (``vnf_sgx_audit_events_total{kind=...}``,
    a no-op under ``NULL_TELEMETRY``), read at each record.

    Thread-safe: concurrent fleet enrollments record trust decisions
    from many worker threads; appends run under an internal lock and
    query methods snapshot the list before filtering (see
    ``docs/CONCURRENCY.md``).  The telemetry counter is updated
    *outside* the lock — counters have their own locks, and calling out
    under ours would invert the lock ordering.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._events: List[AuditEvent] = []
        self._lock = make_lock("audit")

    def record(self, kind: str, subject: str, details: str = "") -> AuditEvent:
        """Append an event stamped with the current simulated time."""
        event = AuditEvent(kind=kind, subject=subject,
                           timestamp=self._clock.now(), details=details)
        with self._lock:
            self._events.append(event)
        self._clock.telemetry.observe_audit(event)
        return event

    def events(self, kind: Optional[str] = None,
               subject: Optional[str] = None) -> List[AuditEvent]:
        """Events, optionally filtered by kind and/or subject."""
        with self._lock:
            out: List[AuditEvent] = list(self._events)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if subject is not None:
            out = [e for e in out if e.subject == subject]
        return out

    def counts(self) -> Dict[str, int]:
        """Event counts by kind."""
        with self._lock:
            snapshot = list(self._events)
        counts: Dict[str, int] = {}
        for event in snapshot:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
