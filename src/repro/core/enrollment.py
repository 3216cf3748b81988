"""The enrolment state machine (the paper's use case 2).

"The second use case is enrolling the VNF into the SDN deployment.  A
prerequisite for this is that the VNF has been attested...  The provisioned
key can then be used to establish a secure communication session with the
SDN controller."

:class:`EnrollmentSession` drives the Figure 1 workflow for one VNF and
records per-step timings (simulated and wall-clock), which is what
experiment E1 reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.host_agent import HostAgentClient
from repro.core.verification_manager import VerificationManager
from repro.errors import (
    ControllerUnavailable,
    EnrollmentError,
    IasUnavailable,
    NetError,
)
from repro.net.clock import VirtualClock
from repro.net.retry import retry_call

#: Failures a step re-attempt can plausibly cure: transport faults and
#: transient service statuses.  Appraisal/attestation verdicts are not
#: retryable — a *rejected* host does not become trustworthy by asking
#: again.
STEP_RETRYABLE = (NetError, IasUnavailable, ControllerUnavailable)

STATE_INIT = "init"
STATE_HOST_ATTESTED = "host-attested"
STATE_VNF_ATTESTED_AND_PROVISIONED = "provisioned"
STATE_ENROLLED = "enrolled"
STATE_FAILED = "failed"

HOST_ATTESTATION_STEP = "host-attestation (steps 1-2)"


@dataclass
class StepTiming:
    """Timing record for one workflow step."""

    step: str
    simulated_seconds: float
    wall_seconds: float


class StepTimer:
    """Step timing shared by the enrollment sessions.

    Each step opens a span in the clock's telemetry, records simulated
    and wall time, fails the session on error, and lands in the
    ``vnf_sgx_workflow_step_seconds{step=...}`` histogram.  Simulated
    time is the clock's :meth:`~repro.net.clock.VirtualClock.local_seconds`:
    a fleet worker's steps count only the charges *it* made, and in a
    single-threaded run they equal the clock's own deltas.  The session
    supplies ``vnf_name``, ``clock``, ``state`` and ``timings``; it
    overrides :meth:`_attempt` to retry a step.
    """

    def _attempt(self, step: str, fn: Callable[[], object]) -> object:
        return fn()

    def _timed(self, step: str, fn: Callable[[], object]) -> object:
        clock = self.clock
        tel = clock.telemetry
        sim_start = clock.local_seconds()
        wall_start = time.perf_counter()
        try:
            with tel.span(step, vnf=self.vnf_name):
                result = self._attempt(step, fn)
        except Exception:
            self.state = STATE_FAILED
            raise
        simulated = clock.local_seconds() - sim_start
        self.timings.append(StepTiming(
            step=step,
            simulated_seconds=simulated,
            wall_seconds=time.perf_counter() - wall_start,
        ))
        tel.workflow_step_seconds.labels(step=step).observe(simulated)
        return result

    @property
    def total_simulated_seconds(self) -> float:
        """Sum of per-step simulated time."""
        return sum(t.simulated_seconds for t in self.timings)


@dataclass
class EnrollmentSession(StepTimer):
    """Drives one VNF from untrusted to enrolled, one step at a time:
    :meth:`attest_host`, :meth:`provision`, then :meth:`connect`
    (:meth:`repro.core.Deployment.enroll` runs them, with the keystore
    update between the last two).

    Args:
        vm: the Verification Manager.
        agent: the host agent stub for the VNF's container host.
        host_name: the container host.
        vnf_name: the VNF to enrol.
        controller_address: where the enrolled VNF should connect.
        csr: the key custody of step 5: ``False`` has the VM generate
            and deliver the key pair (the paper's path), ``True`` has the
            enclave generate it and send a CSR, so the private key never
            leaves the enclave.

    The session runs on the Verification Manager's clock: its steps are
    timed and traced there, and each step follows that clock's retry
    policy at the moment it runs.  A step that fails with a transient
    error (:data:`STEP_RETRYABLE`) is re-run whole, with backoff charged
    to the clock.  The layering is deliberate: client-level retries
    absorb single lost packets, session-level retries absorb failures
    spanning a whole step (e.g. an enclave restart mid-provisioning).
    """

    vm: VerificationManager
    agent: HostAgentClient
    host_name: str
    vnf_name: str
    controller_address: str
    state: str = STATE_INIT
    timings: List[StepTiming] = field(default_factory=list)
    certificate_serial: Optional[int] = None
    #: A serial pre-reserved via ``vm.ca.reserve_serial()``; a fleet run
    #: reserves serials in submission order so pooled workers issue
    #: byte-identical certificates regardless of interleaving.
    reserved_serial: Optional[int] = None
    #: ``"ExceptionType: message"`` once a workflow run recorded this
    #: session's failure (see ``WorkflowTrace.failed``).
    error: Optional[str] = None
    csr: bool = False

    @property
    def clock(self) -> VirtualClock:
        """The Verification Manager's clock."""
        return self.vm.clock

    def _attempt(self, step: str, fn: Callable[[], object]) -> object:
        return retry_call(
            fn, clock=self.clock,
            operation=f"enrollment:{step.split(' ')[0]}",
            retryable=STEP_RETRYABLE,
        )

    # ----------------------------------------------------------- the steps

    def attest_host(self):
        """Steps 1-2: host attestation + IAS verification + appraisal."""
        if self.state != STATE_INIT:
            raise EnrollmentError(f"attest_host in state {self.state}")

        def attest_and_check():
            result = self.vm.attest_host(self.agent, self.host_name)
            result.raise_if_failed(self.host_name)
            return result

        result = self._timed(HOST_ATTESTATION_STEP, attest_and_check)
        self.state = STATE_HOST_ATTESTED
        return result

    def provision(self):
        """Steps 3-5: VNF attestation, credential issue + provisioning."""
        if self.state != STATE_HOST_ATTESTED:
            raise EnrollmentError(f"provision in state {self.state}")
        def issue_and_provision():
            serial = self.reserved_serial
            if serial is not None and self.vm.ca.is_issued(serial):
                # A previous attempt consumed the reservation before
                # failing downstream of issuance; re-using it would trip
                # the CA's double-issuance guard, so fall back to a
                # fresh allocation (the faulted path has already
                # diverged from the serial schedule anyway).
                serial = None
            return self.vm.enroll_vnf(
                self.agent, self.host_name, self.vnf_name,
                self.controller_address, serial=serial, csr=self.csr,
            )

        certificate = self._timed(
            "vnf-attestation+provisioning (steps 3-5)",
            issue_and_provision,
        )
        self.certificate_serial = certificate.serial
        self.state = STATE_VNF_ATTESTED_AND_PROVISIONED
        return certificate

    def connect(self, client) -> dict:
        """Step 6: first authenticated controller call through the enclave."""
        if self.state != STATE_VNF_ATTESTED_AND_PROVISIONED:
            raise EnrollmentError(f"connect in state {self.state}")
        summary = self._timed(
            "controller-session (step 6)",
            client.summary,
        )
        self.state = STATE_ENROLLED
        return summary

    @property
    def succeeded(self) -> bool:
        """Did this VNF reach the enrolled state?"""
        return self.state == STATE_ENROLLED
