"""Re-attestation and revocation orchestration.

The Verification Manager can "provision or revoke authentication keys that
can be used by VNFs *as long as the container host is trustworthy*"
(paper, section 2).  :class:`ReattestationMonitor` implements the "as long
as" part: it periodically re-attests hosts and, on an appraisal failure,
distrusts the host, revokes every credential on it, and (optionally)
revokes the platform's EPID key at IAS.

A sweep distinguishes two very different kinds of bad news:

* **untrustworthy** — the host answered and its evidence failed
  appraisal (or IAS rejected the quote).  Credentials are revoked
  immediately; a compromised host must not keep its keys for even one
  more sweep interval.
* **unreachable** — the attestation *transport* failed (agent down,
  network partition, IAS outage outlasting the retry budget).  That is
  an availability problem, not an integrity verdict: the host keeps its
  last-known trust status and the monitor retries on the next sweep.
  Revoking a whole rack's credentials because a switch rebooted would
  turn every network blip into a fleet-wide outage.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.host_agent import HostAgentClient
from repro.core.verification_manager import VerificationManager
from repro.errors import AttestationFailed, IasError, IasUnavailable, NetError

#: Transport-level failures that mark a host *unreachable* (kept, retried)
#: rather than *untrustworthy* (revoked).
UNREACHABLE_ERRORS = (NetError, IasUnavailable)

STATUS_TRUSTED = "trusted"
STATUS_REVOKED = "revoked"
STATUS_UNREACHABLE = "unreachable"


@dataclass
class ReattestationOutcome:
    """The result of one monitoring sweep over one host.

    Attributes:
        trustworthy: the host's trust status *after* this sweep.  For an
            unreachable host this is the last-known status, unchanged.
        reachable: False when the sweep could not complete for transport
            reasons; no verdict was reached and nothing was revoked.
        status: ``"trusted"``, ``"revoked"`` or ``"unreachable"``.
        consecutive_unreachable: how many sweeps in a row this host has
            been unreachable (0 when reachable).
    """

    host_name: str
    trustworthy: bool
    revoked_vnfs: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    reachable: bool = True
    status: str = STATUS_TRUSTED
    consecutive_unreachable: int = 0


class ReattestationMonitor:
    """Periodic trust maintenance for a fleet of hosts."""

    def __init__(self, vm: VerificationManager,
                 ias_service=None) -> None:
        self._vm = vm
        self._ias_service = ias_service
        self._hosts: Dict[str, HostAgentClient] = {}
        self._unreachable_streak: Dict[str, int] = {}
        self.sweeps = 0

    def watch(self, host_name: str, agent: HostAgentClient) -> None:
        """Add a host to the monitored set."""
        self._hosts[host_name] = agent

    def sweep(self) -> List[ReattestationOutcome]:
        """Re-attest every watched host, revoking on failure."""
        self.sweeps += 1
        outcomes = []
        for host_name, agent in self._hosts.items():
            outcomes.append(self._check_one(host_name, agent))
        return outcomes

    def unreachable_streak(self, host_name: str) -> int:
        """Consecutive sweeps ``host_name`` has been unreachable."""
        return self._unreachable_streak.get(host_name, 0)

    def _check_one(self, host_name: str,
                   agent: HostAgentClient) -> ReattestationOutcome:
        try:
            result = self._vm.attest_host(agent, host_name)
        except UNREACHABLE_ERRORS as exc:
            # Transport failed: no verdict was reached.  Keep the
            # last-known trust status and retry on the next sweep —
            # "host unreachable" is not "host untrustworthy".
            streak = self._unreachable_streak.get(host_name, 0) + 1
            self._unreachable_streak[host_name] = streak
            return ReattestationOutcome(
                host_name,
                trustworthy=self._vm.host_trusted(host_name),
                failures=[f"host unreachable (retrying): "
                          f"{type(exc).__name__}: {exc}"],
                reachable=False,
                status=STATUS_UNREACHABLE,
                consecutive_unreachable=streak,
            )
        except AttestationFailed as exc:
            self._unreachable_streak.pop(host_name, None)
            revoked = self._punish(host_name)
            return ReattestationOutcome(host_name, False, revoked,
                                        [str(exc)], status=STATUS_REVOKED)
        self._unreachable_streak.pop(host_name, None)
        if result.trustworthy:
            return ReattestationOutcome(host_name, True,
                                        status=STATUS_TRUSTED)
        revoked = self._punish(host_name)
        return ReattestationOutcome(host_name, False, revoked,
                                    list(result.failures),
                                    status=STATUS_REVOKED)

    def _punish(self, host_name: str) -> List[str]:
        revoked = self._vm.distrust_host(host_name)
        if self._ias_service is not None:
            # The platform may simply never have been registered with
            # this IAS instance; that must not mask the (already
            # completed) local revocation.  Anything else propagates.
            with contextlib.suppress(IasError):
                self._ias_service.revoke_platform(host_name)
        return revoked
