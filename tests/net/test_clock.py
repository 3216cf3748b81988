"""Virtual clock: monotonicity and per-account charging."""

import pytest

from repro.net.clock import VirtualClock


def test_starts_at_configured_time():
    assert VirtualClock().now() == 0.0
    assert VirtualClock(100.5).now() == 100.5


def test_advance_accumulates():
    clock = VirtualClock()
    clock.advance(1.5)
    clock.advance(0.25)
    assert clock.now() == 1.75


def test_cannot_go_backwards():
    with pytest.raises(ValueError):
        VirtualClock().advance(-0.1)


def test_charges_by_account():
    clock = VirtualClock()
    clock.advance(1.0, "network")
    clock.advance(2.0, "enclave-transitions")
    clock.advance(0.5, "network")
    assert clock.charges() == {"network": 1.5, "enclave-transitions": 2.0}


def test_reset_charges_keeps_time():
    clock = VirtualClock()
    clock.advance(3.0, "network")
    clock.reset_charges()
    assert clock.now() == 3.0
    assert clock.charges() == {}


def test_now_seconds_truncates():
    clock = VirtualClock(41.9)
    assert clock.now_seconds() == 41
