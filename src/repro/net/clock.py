"""Virtual time.

Everything that costs time in the simulation — link latency, enclave
transitions, crypto work modelled at a coarser grain — charges seconds to a
shared :class:`VirtualClock`.  Components also use the clock for certificate
validity and CRL freshness, so an entire deployment shares one time line.

Concurrency
-----------

Fleet enrollment (:mod:`repro.core.fleet`) drives many sessions from a
worker pool, so the clock is **thread-safe**: ``advance`` performs its
read-modify-write under an internal lock, and readers see a consistent
snapshot.  On top of the global time line the clock keeps **per-thread
local accounting**: every ``advance`` also accrues to the calling
thread's private counter, readable via :meth:`local_seconds`.  A
session that measures its own simulated cost as a delta of
``local_seconds()`` gets a number unpolluted by whatever sibling
sessions charged concurrently — and in a single-threaded run the local
delta equals the global delta, so serial and pooled runs report the
same per-step simulated timings.  See ``docs/CONCURRENCY.md``.

Telemetry
---------

The clock also carries its deployment's telemetry: ``telemetry`` is
:data:`~repro.obs.metrics.NULL_TELEMETRY` until
:meth:`~repro.core.workflow.Deployment.enable_telemetry` sets it, and
again after ``disable_telemetry``.  Every emitting component reads it
from a clock it already holds at the moment it emits, so two
deployments in one process each record only their own work.  Only
enable and disable write it; readers take no lock.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.analysis.sanitizer import make_lock, shared_state


@shared_state("_now", "_charges")
class VirtualClock:
    """A monotonically advancing simulated clock (thread-safe).

    Args:
        start: initial time in seconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        # Imported here: repro.obs imports repro.net, which imports this.
        from repro.obs.metrics import NULL_TELEMETRY

        #: The deployment's telemetry (see the module docstring).
        self.telemetry = NULL_TELEMETRY
        self._now = float(start)
        self._charges: Dict[str, float] = {}
        self._lock = make_lock("clock")
        self._local = threading.local()

    def now(self) -> float:
        """Current simulated time in seconds."""
        with self._lock:
            return self._now

    def now_seconds(self) -> int:
        """Current simulated time truncated to whole seconds (PKI uses this)."""
        return int(self.now())

    def advance(self, seconds: float, account: str = "other") -> None:
        """Advance time by ``seconds``, attributing the cost to ``account``.

        Accounts let benchmarks break total simulated time down by cause
        (link latency vs. enclave transitions vs. handshake crypto).
        The global advance and the per-account charge are applied
        atomically; the calling thread's local counter (see
        :meth:`local_seconds`) accrues the same amount.
        """
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        with self._lock:
            self._now += seconds
            self._charges[account] = self._charges.get(account, 0.0) + seconds
        self._local.elapsed = getattr(self._local, "elapsed", 0.0) + seconds

    def local_seconds(self) -> float:
        """Simulated seconds advanced *by the calling thread*.

        Starts at 0.0 per thread and accrues every ``advance`` the thread
        performs.  In a single-threaded deployment this moves in lockstep
        with :meth:`now` (modulo the start offset), which is what makes
        pooled fleet timings comparable to serial ones.
        """
        return getattr(self._local, "elapsed", 0.0)

    def charges(self) -> Dict[str, float]:
        """Accumulated per-account charges since construction."""
        with self._lock:
            return dict(self._charges)

    def reset_charges(self) -> None:
        """Zero the per-account accounting (time itself keeps running)."""
        with self._lock:
            self._charges.clear()


class StopWatch:
    """Measures simulated time elapsed across a region of code.

    Example:
        >>> clock = VirtualClock()
        >>> with StopWatch(clock) as sw:
        ...     clock.advance(1.5)
        >>> sw.elapsed
        1.5
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "StopWatch":
        self._start = self._clock.now()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = self._clock.now() - self._start
