"""The enclave transition cost model.

Crossing the enclave boundary costs on the order of 8 000 cycles each way
on real hardware (the TLB flush, register scrubbing and EPC access checks),
and data copied across the boundary pays a marshalling cost.  Experiment E4
("TLS inside vs. outside the enclave") is driven entirely by these charges,
and the ECALL cycle cost is a swept parameter in the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.clock import VirtualClock

ACCOUNT = "enclave-transitions"


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of enclave operations.

    Attributes:
        ecall_cycles: cycles for one ECALL entry + exit pair.
        ocall_cycles: cycles for one OCALL exit + re-entry pair.
        bytes_per_cycle: boundary-crossing copy throughput.
        epc_page_fault_cycles: cost of one EPC paging event.
        cpu_hz: clock frequency used to convert cycles to seconds.
    """

    ecall_cycles: int = 8000
    ocall_cycles: int = 8300
    bytes_per_cycle: float = 8.0
    epc_page_fault_cycles: int = 40000
    cpu_hz: float = 2.6e9

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to simulated seconds."""
        return cycles / self.cpu_hz

    def ecall_cost(self, payload_bytes: int) -> float:
        """Simulated seconds for an ECALL round trip moving ``payload_bytes``."""
        return self.seconds(self.ecall_cycles + payload_bytes / self.bytes_per_cycle)

    def ocall_cost(self, payload_bytes: int) -> float:
        """Simulated seconds for an OCALL round trip."""
        return self.seconds(self.ocall_cycles + payload_bytes / self.bytes_per_cycle)


class TransitionAccountant:
    """Counts transitions and charges their cost to the virtual clock.

    With a clock, each transition also lands in the clock's telemetry
    counters, labelled with ``platform`` (the platform's name).
    """

    def __init__(self, model: CostModel, clock: Optional[VirtualClock],
                 platform: str = "") -> None:
        self.model = model
        self._clock = clock
        self.platform = platform
        self.ecalls = 0
        self.ocalls = 0
        self.bytes_crossed = 0

    def charge_ecall(self, payload_bytes: int) -> None:
        """Record one ECALL round trip."""
        self.ecalls += 1
        self.bytes_crossed += payload_bytes
        if self._clock is not None:
            tel = self._clock.telemetry
            tel.ecalls.labels(platform=self.platform).inc()
            tel.boundary_bytes.labels(platform=self.platform).inc(
                payload_bytes)
            self._clock.advance(self.model.ecall_cost(payload_bytes), ACCOUNT)

    def charge_ocall(self, payload_bytes: int) -> None:
        """Record one OCALL round trip."""
        self.ocalls += 1
        self.bytes_crossed += payload_bytes
        if self._clock is not None:
            tel = self._clock.telemetry
            tel.ocalls.labels(platform=self.platform).inc()
            tel.boundary_bytes.labels(platform=self.platform).inc(
                payload_bytes)
            self._clock.advance(self.model.ocall_cost(payload_bytes), ACCOUNT)

    def charge_page_fault(self, count: int = 1) -> None:
        """Record EPC paging events."""
        if self._clock is not None:
            self._clock.advance(
                self.model.seconds(self.model.epc_page_fault_cycles * count),
                ACCOUNT,
            )
