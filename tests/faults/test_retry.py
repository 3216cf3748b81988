"""Unit tests for the retry/backoff executor (repro.net.retry).

``retry_call`` reads its policy, jitter DRBG and telemetry from the clock
it charges; a test without a ``Deployment`` sets them on the clock.
"""

import types

import pytest

from repro.crypto.rng import HmacDrbg
from repro.errors import ConnectionRefused, VnfSgxError
from repro.net.clock import VirtualClock
from repro.net.retry import (
    BACKOFF_ACCOUNT,
    NO_RETRY,
    RetryPolicy,
    retry_call,
)


def _clock(policy):
    clock = VirtualClock()
    clock.retry_policy = policy
    return clock


class Flaky:
    """Fails ``failures`` times, then succeeds."""

    def __init__(self, failures, exc=None):
        self.failures = failures
        self.exc = exc if exc is not None else ConnectionRefused("refused")
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return "ok"


def test_policy_validation():
    with pytest.raises(VnfSgxError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(VnfSgxError):
        RetryPolicy(base_backoff=-1.0)
    with pytest.raises(VnfSgxError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(VnfSgxError):
        RetryPolicy(jitter=1.0)


def test_backoff_series_is_exponential_and_capped():
    policy = RetryPolicy(max_attempts=6, base_backoff=0.1, multiplier=2.0,
                         max_backoff=0.35, jitter=0.0)
    series = [policy.backoff_before(attempt) for attempt in range(1, 7)]
    assert series == [0.0, 0.1, 0.2, pytest.approx(0.35),
                      pytest.approx(0.35), pytest.approx(0.35)]


def test_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_backoff=1.0, jitter=0.25)
    draws_a = [policy.backoff_before(2, HmacDrbg(b"s")) for _ in range(1)]
    draws_b = [policy.backoff_before(2, HmacDrbg(b"s")) for _ in range(1)]
    assert draws_a == draws_b  # same DRBG stream, same jitter
    for _ in range(32):
        value = policy.backoff_before(2, HmacDrbg(b"other"))
        assert 0.75 <= value <= 1.25


def test_no_retry_needs_no_clock():
    # Under NO_RETRY the executor reads the policy and nothing else: no
    # time, no telemetry, no jitter DRBG.
    policy_only = types.SimpleNamespace(retry_policy=NO_RETRY)
    assert retry_call(Flaky(0), clock=policy_only, operation="x") == "ok"
    assert retry_call(lambda: 7, clock=VirtualClock(), operation="x") == 7


def test_retries_until_success_and_charges_backoff():
    clock = _clock(RetryPolicy(max_attempts=4, base_backoff=0.1,
                               multiplier=2.0, jitter=0.0))
    flaky = Flaky(2)
    assert retry_call(flaky, clock=clock, operation="t") == "ok"
    assert flaky.calls == 3
    assert clock.charges()[BACKOFF_ACCOUNT] == pytest.approx(0.1 + 0.2)


def test_giveup_reraises_original_exception():
    clock = _clock(RetryPolicy(max_attempts=3, base_backoff=0.0, jitter=0.0))
    original = ConnectionRefused("still down")
    flaky = Flaky(99, exc=original)
    with pytest.raises(ConnectionRefused) as excinfo:
        retry_call(flaky, clock=clock, operation="t")
    assert excinfo.value is original
    assert flaky.calls == 3


def test_non_retryable_propagates_immediately():
    clock = _clock(RetryPolicy(max_attempts=5))
    flaky = Flaky(99, exc=ValueError("logic bug"))
    with pytest.raises(ValueError):
        retry_call(flaky, clock=clock, operation="t")
    assert flaky.calls == 1


def test_deadline_gates_further_attempts():
    clock = _clock(RetryPolicy(max_attempts=100, base_backoff=0.0,
                               jitter=0.0, deadline=25.0))

    def slow_failure():
        clock.advance(10.0, "work")
        raise ConnectionRefused("down")

    with pytest.raises(ConnectionRefused):
        retry_call(slow_failure, clock=clock, operation="t")
    # 10s + 10s + 10s >= 25s: the third failure gives up.
    assert clock.now() == pytest.approx(30.0)


def test_span_events_observe_each_reattempt():
    from repro.obs import MetricsRegistry, Telemetry

    clock = _clock(RetryPolicy(max_attempts=4, base_backoff=0.0, jitter=0.0))
    clock.telemetry = Telemetry(registry=MetricsRegistry(), now=clock.now)
    with clock.telemetry.span("op") as span:
        assert retry_call(Flaky(2), clock=clock, operation="t") == "ok"
    assert [event["attempt"] for event in span.events] == [1, 2]


def test_retry_metrics_and_span_events():
    from repro.obs import MetricsRegistry, Telemetry

    clock = _clock(RetryPolicy(max_attempts=2, base_backoff=0.5, jitter=0.0))
    telemetry = Telemetry(registry=MetricsRegistry(), now=clock.now)
    clock.telemetry = telemetry
    flaky = Flaky(99)
    with telemetry.span("op") as span:
        with pytest.raises(ConnectionRefused):
            retry_call(flaky, clock=clock, operation="demo")
    assert telemetry.retry_attempts.labels(operation="demo").value == 1
    assert telemetry.retry_giveups.labels(operation="demo").value == 1
    names = [event["name"] for event in span.events]
    assert names == ["retry", "retry-giveup"]
