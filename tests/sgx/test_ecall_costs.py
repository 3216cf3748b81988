"""The transition cost model."""

import pytest

from repro.net.clock import VirtualClock
from repro.sgx.ecall import ACCOUNT, CostModel, TransitionAccountant


def test_cycle_to_seconds_conversion():
    model = CostModel(cpu_hz=2e9)
    assert model.seconds(2e9) == 1.0


def test_ecall_cost_scales_with_payload():
    model = CostModel()
    assert model.ecall_cost(0) < model.ecall_cost(10_000)
    base = model.ecall_cost(0)
    assert base == pytest.approx(model.seconds(model.ecall_cycles))


def test_accountant_charges_clock():
    clock = VirtualClock()
    accountant = TransitionAccountant(CostModel(), clock)
    accountant.charge_ecall(100)
    accountant.charge_ocall(50)
    accountant.charge_page_fault(2)
    assert accountant.ecalls == 1
    assert accountant.ocalls == 1
    assert accountant.bytes_crossed == 150
    assert clock.charges()[ACCOUNT] == pytest.approx(clock.now())
    assert clock.now() > 0


def test_higher_ecall_cycles_cost_more_time():
    cheap, dear = VirtualClock(), VirtualClock()
    TransitionAccountant(CostModel(ecall_cycles=8000), cheap).charge_ecall(0)
    TransitionAccountant(CostModel(ecall_cycles=80000), dear).charge_ecall(0)
    assert dear.now() > cheap.now()
