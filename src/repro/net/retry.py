"""Retry, timeout and backoff for the enrollment pipeline.

A deployment's retry policy lives on its clock:
``VirtualClock.retry_policy`` (:data:`NO_RETRY` until
:meth:`~repro.core.workflow.Deployment.set_retry_policy` sets another)
and ``VirtualClock.retry_rng`` (the jitter DRBG).  :func:`retry_call` is
the shared executor; every network client (``IasClient`` and its pooled
twin, ``HostAgentClient``, ``VnfRestClient``) and every
:class:`~repro.core.enrollment.EnrollmentSession` step calls it with the
clock it already charges, so each reads the policy in force at the
moment it runs.  Semantics:

- **transparent**: under :data:`NO_RETRY` (the default) the call is the
  pre-retry behaviour bit-for-bit — one attempt, no clock charges, the
  original exception propagates.
- **deterministic**: backoff jitter is drawn from the clock's HMAC-DRBG
  and the sleep is charged to the clock under the ``"retry-backoff"``
  account, so equal seeds give identical retry traces.
- **typed**: only exceptions in the ``retryable`` set are retried;
  everything else (appraisal failures, protocol violations, application
  errors) propagates immediately.  On give-up the *original* exception
  is re-raised, so callers' exception contracts are unchanged.
- **observable**: with a real :class:`repro.obs.Telemetry` on the clock,
  re-attempts and give-ups land in
  ``vnf_sgx_retry_attempts_total{operation=...}`` /
  ``vnf_sgx_retry_giveups_total{operation=...}``, backoff sleeps in
  ``vnf_sgx_retry_backoff_seconds``, and each retry adds an event to the
  innermost open span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Type, TypeVar

from repro.errors import IasUnavailable, NetError, VnfSgxError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.net.clock import VirtualClock

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
            clock's ``retry_rng`` (0 disables jitter).
        deadline: total simulated-seconds budget across all attempts;
            once exceeded, the next failure gives up regardless of
            ``max_attempts``.
    """

    max_attempts: int = 4
    base_backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.1
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


def retry_call(fn: Callable[[], T], *, clock: VirtualClock, operation: str,
               retryable: Tuple[Type[BaseException], ...] = TRANSIENT_ERRORS
               ) -> T:
    """Run ``fn`` under the clock's retry policy; the shared executor.

    Args:
        fn: zero-argument attempt (must be safe to re-run; every client
            re-establishes its connection inside the attempt).
        clock: the virtual clock the attempts charge.  Its
            ``retry_policy`` decides how often to try, its ``retry_rng``
            draws the backoff jitter, backoff sleeps are charged to it,
            and retries are counted in its ``telemetry``.
        operation: label for metrics and span events.
        retryable: exception types eligible for retry.

    Raises:
        The original exception from the final attempt, unchanged.
    """
    policy = clock.retry_policy
    if policy.max_attempts == 1 and policy.deadline is None:
        return fn()  # fast path: no time read, nothing charged
    telemetry, rng = clock.telemetry, clock.retry_rng
    started = clock.now()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except retryable as exc:
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
            )
            if backoff > 0.0:
                clock.advance(backoff, BACKOFF_ACCOUNT)


__all__ = [
    "BACKOFF_ACCOUNT",
    "NO_RETRY",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "retry_call",
]
