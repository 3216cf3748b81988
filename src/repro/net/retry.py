"""Retry, timeout and backoff for the enrollment pipeline.

Every network client in the pipeline (``IasClient``, ``HostAgentClient``,
``VnfRestClient``) and the :class:`~repro.core.enrollment.EnrollmentSession`
itself can be configured with a :class:`RetryPolicy`; :func:`retry_call`
is the shared executor.  Semantics:

- **transparent**: a policy of :data:`NO_RETRY` (the default everywhere)
  reproduces the pre-retry behaviour bit-for-bit — one attempt, no clock
  charges, the original exception propagates.
- **deterministic**: backoff jitter is drawn from a caller-supplied
  HMAC-DRBG and the sleep is charged to the virtual clock under the
  ``"retry-backoff"`` account, so equal seeds give identical retry
  traces.
- **typed**: only exceptions in the ``retryable`` set are retried;
  everything else (appraisal failures, protocol violations, application
  errors) propagates immediately.  On give-up the *original* exception
  is re-raised, so callers' exception contracts are unchanged.
- **observable**: with a real :class:`repro.obs.Telemetry` (a
  retrying client's is its clock's), re-attempts and give-ups land in
  ``vnf_sgx_retry_attempts_total{operation=...}`` /
  ``vnf_sgx_retry_giveups_total{operation=...}``, backoff sleeps in
  ``vnf_sgx_retry_backoff_seconds``, and each retry adds an event to the
  innermost open span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.errors import IasUnavailable, NetError, VnfSgxError
from repro.net.clock import VirtualClock
from repro.obs.metrics import NULL_TELEMETRY

T = TypeVar("T")

#: Clock account charged by backoff sleeps.
BACKOFF_ACCOUNT = "retry-backoff"

#: The default transient-failure set: anything the simulated network
#: raises (refusals, drops, lockstep loss) plus an IAS 5xx verdict.
TRANSIENT_ERRORS: Tuple[Type[BaseException], ...] = (NetError, IasUnavailable)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving up.

    Attributes:
        max_attempts: total attempts (1 = no retries).
        base_backoff: simulated seconds slept before the first re-attempt.
        multiplier: exponential growth factor between re-attempts.
        max_backoff: backoff ceiling in simulated seconds.
        jitter: fractional jitter; each sleep is scaled by a factor drawn
            uniformly from ``[1 - jitter, 1 + jitter)`` using the
            caller's DRBG (0 disables jitter).
        attempt_timeout: per-attempt budget in simulated seconds; an
            attempt that fails after exceeding it is classified as a
            timeout (the simulation is synchronous, so the budget cannot
            interrupt an attempt — it classifies and gates retries).
        deadline: total simulated-seconds budget across all attempts;
            once exceeded, the next failure gives up regardless of
            ``max_attempts``.
    """

    max_attempts: int = 4
    base_backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.1
    attempt_timeout: Optional[float] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise VnfSgxError("max_attempts must be at least 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise VnfSgxError("backoff must be non-negative")
        if self.multiplier < 1.0:
            raise VnfSgxError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise VnfSgxError("jitter must be within [0, 1)")

    def backoff_before(self, attempt: int, rng=None) -> float:
        """Simulated seconds to sleep before attempt ``attempt`` (2-based).

        Exponential in the retry index, capped at :attr:`max_backoff`,
        with deterministic multiplicative jitter when ``rng`` is given.
        """
        if attempt < 2:
            return 0.0
        raw = min(self.base_backoff * self.multiplier ** (attempt - 2),
                  self.max_backoff)
        if rng is not None and self.jitter > 0.0 and raw > 0.0:
            fraction = rng.random_int(1 << 20) / float(1 << 20)
            raw *= 1.0 + self.jitter * (2.0 * fraction - 1.0)
        return raw


#: Exactly one attempt — the drop-in equivalent of "no retry layer".
NO_RETRY = RetryPolicy(max_attempts=1, base_backoff=0.0, jitter=0.0)


def _span_event(telemetry, name: str, **attributes) -> None:
    """Attach an event to the innermost open span, if there is one."""
    span = telemetry.tracer.current_span()
    if span is not None:
        span.add_event(name, timestamp=telemetry.now(), **attributes)


def retry_call(fn: Callable[[], T], *, policy: Optional[RetryPolicy],
               clock: Optional[VirtualClock], operation: str,
               rng=None,
               retryable: Tuple[Type[BaseException], ...] = TRANSIENT_ERRORS,
               telemetry=NULL_TELEMETRY,
               on_retry: Optional[Callable[[int, BaseException], None]] = None
               ) -> T:
    """Run ``fn`` under ``policy``; the shared retry executor.

    Args:
        fn: zero-argument attempt (must be safe to re-run; every client
            re-establishes its connection inside the attempt).
        policy: the retry policy; ``None`` means :data:`NO_RETRY`.
        clock: virtual clock for backoff charging and timeout/deadline
            accounting; may be ``None`` only when the policy never
            sleeps or measures (i.e. ``NO_RETRY``).
        operation: label for metrics and span events.
        rng: DRBG for jitter (optional; no jitter without it).
        retryable: exception types eligible for retry.
        telemetry: a :class:`repro.obs.Telemetry` (default: the null
            object).
        on_retry: test/diagnostic hook called as ``on_retry(attempt, exc)``
            before each backoff sleep.

    Raises:
        The original exception from the final attempt, unchanged.
    """
    if policy is None:
        policy = NO_RETRY
    if policy.max_attempts == 1 and policy.deadline is None:
        return fn()  # fast path: zero overhead, zero clock access
    if clock is None:
        raise VnfSgxError(
            f"retry for {operation!r} needs a clock to charge backoff"
        )
    started = clock.now()
    attempt = 0
    while True:
        attempt += 1
        attempt_start = clock.now()
        try:
            return fn()
        except retryable as exc:
            elapsed = clock.now() - attempt_start
            timed_out = (policy.attempt_timeout is not None
                         and elapsed > policy.attempt_timeout)
            total = clock.now() - started
            over_deadline = (policy.deadline is not None
                             and total >= policy.deadline)
            if attempt >= policy.max_attempts or over_deadline:
                telemetry.retry_giveups.labels(operation=operation).inc()
                _span_event(
                    telemetry, "retry-giveup", operation=operation,
                    attempts=attempt,
                    reason=("deadline" if over_deadline else "attempts"),
                    error=f"{type(exc).__name__}: {exc}",
                )
                raise
            backoff = policy.backoff_before(attempt + 1, rng)
            telemetry.retry_attempts.labels(operation=operation).inc()
            telemetry.retry_backoff_seconds.labels().observe(backoff)
            _span_event(
                telemetry, "retry", operation=operation, attempt=attempt,
                backoff_seconds=backoff,
                error=f"{type(exc).__name__}: {exc}",
                timed_out=timed_out,
            )
            if on_retry is not None:
                on_retry(attempt, exc)
            if backoff > 0.0:
                clock.advance(backoff, BACKOFF_ACCOUNT)


class RetryingMixin:
    """Shared plumbing for clients that support ``configure_retries``.

    Subclasses call :meth:`_retrying` around one attempt-closure; the
    mixin holds the policy and the jitter DRBG (``None`` by default, which
    reproduces pre-retry behaviour).  Retries are counted in the
    telemetry of the clock each attempt-closure is charged to.
    """

    _retry_policy: Optional[RetryPolicy] = None
    _retry_rng = None

    def configure_retries(self, policy: Optional[RetryPolicy],
                          rng=None) -> None:
        """Install (or clear, with ``None``) a retry policy."""
        self._retry_policy = policy
        self._retry_rng = rng

    def _retrying(self, fn: Callable[[], T], *, operation: str,
                  clock: VirtualClock,
                  retryable: Tuple[Type[BaseException], ...] = TRANSIENT_ERRORS
                  ) -> T:
        return retry_call(
            fn, policy=self._retry_policy, clock=clock, operation=operation,
            rng=self._retry_rng, retryable=retryable,
            telemetry=clock.telemetry,
        )


__all__ = [
    "BACKOFF_ACCOUNT",
    "NO_RETRY",
    "RetryPolicy",
    "RetryingMixin",
    "TRANSIENT_ERRORS",
    "retry_call",
]
