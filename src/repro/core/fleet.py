"""Fleet-scale concurrent enrollment: a worker-pool scheduler.

The paper enrolls two VNFs; an operator enrolls hundreds.  Driving
:class:`~repro.core.enrollment.EnrollmentSession` serially repeats two
expensive steps once *per VNF* that a fleet only needs once *per run*:

- **host attestation** — every serial enrollment re-attests the VNF's
  container host (fresh nonce, fresh quote, full IAS round trip, full
  IML appraisal).  The fleet scheduler attests each distinct host
  exactly once (*single-flight*: the first worker that needs a host
  attests it while holding that host's lock; everyone else waits and
  reuses the verdict);
- **the IAS connection** — :class:`~repro.ias.api.IasClient` dials and
  TLS-handshakes per verification.  :class:`PooledIasClient` keeps one
  persistent connection and pipelines report requests over it,
  serializing whole exchanges under a lock as
  :mod:`repro.net.channel`'s sharing rule requires.

Determinism: pooled and serial runs must issue **byte-identical
credentials** (experiment E12 asserts this).  Three mechanisms make the
result independent of worker interleaving:

1. certificate serials are *reserved in submission order* via
   :meth:`~repro.pki.ca.CertificateAuthority.reserve_serial` before any
   worker starts;
2. each VNF's key material comes from a dedicated per-VNF DRBG
   (:meth:`~repro.core.verification_manager.VerificationManager.
   _credential_rng`), so key bits never depend on how other
   enrollments interleaved draws on the shared RNG;
3. ECDSA signatures are RFC 6979 deterministic.

Partial-failure semantics mirror
:meth:`~repro.core.workflow.Deployment.run_workflow`: one failed VNF is
recorded in the report and the fleet run continues.  Locking rules for
everything the workers share are catalogued in ``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.sanitizer import make_lock, make_rlock
from repro.core.enrollment import (
    STATE_FAILED,
    STATE_HOST_ATTESTED,
    EnrollmentSession,
    StepTiming,
)
from repro.errors import ChannelClosed, NetError, ReproError, VnfSgxError
from repro.ias.api import IasClient

HOST_ATTESTATION_STEP = "host-attestation (steps 1-2)"


class PooledIasClient(IasClient):
    """An :class:`IasClient` that keeps one persistent connection.

    The base client dials IAS and runs a full TLS handshake for every
    quote; a fleet of N VNFs on H hosts performs N + H verifications, so
    the handshake tax dominates.  This subclass opens the connection
    once, pipelines report requests over it (the IAS server's parser
    loop already answers back-to-back requests on one connection), and
    transparently reconnects when the transport faults mid-exchange so
    the retry layer sees exactly the usual transient errors.

    Thread-safe: the pooled connection is a lockstep request/response
    rail, so whole exchanges serialize under ``_pool_lock`` — the
    sharing rule from :mod:`repro.net.channel`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pooled_conn = None
        self._pool_lock = make_rlock("ias_pool")
        #: Exchanges served over a reused connection (telemetry for E12).
        self.reused_exchanges = 0
        #: Connections (re-)established, including the first.
        self.connects = 0

    # ----------------------------------------------- pooled connection

    def _pooled_exchange(self, exchange):
        """Run ``exchange(conn)`` on the pooled connection.

        On a transport fault over a *reused* connection, the connection
        may simply have gone stale since the last exchange — retry once
        on a fresh handshake within this same attempt, so the error
        that ultimately reaches the retry layer (and, once the retry
        deadline is exhausted, the caller) is the underlying
        :class:`~repro.errors.IasError`, not the stale transport's
        ``ChannelClosed``.  A fault on a *fresh* connection is genuine
        and propagates for the retry layer's backoff.
        """
        with self._pool_lock:
            reused = self._pooled_conn is not None
            if reused:
                self.reused_exchanges += 1
            else:
                self._pooled_conn = self._open_connection()
                self.connects += 1
            try:
                return exchange(self._pooled_conn)
            except (NetError, ChannelClosed):
                self.close()
                if not reused:
                    raise
                self._pooled_conn = self._open_connection()
                self.connects += 1
                try:
                    return exchange(self._pooled_conn)
                except (NetError, ChannelClosed):
                    self.close()
                    raise

    def _verify_once(self, quote_bytes, nonce):
        return self._pooled_exchange(
            lambda conn: self._exchange_on(conn, quote_bytes, nonce)
        )

    def close(self) -> None:
        """Tear down the pooled connection (idempotent)."""
        with self._pool_lock:
            conn = self._pooled_conn
            self._pooled_conn = None
            if conn is not None:
                # Best-effort: a dropped channel cannot block teardown.
                with contextlib.suppress(NetError, ChannelClosed):
                    conn.close()


@dataclass
class FleetResult:
    """Outcome of one VNF's enrollment within a fleet run."""

    vnf_name: str
    host_name: str
    state: str
    certificate_serial: Optional[int] = None
    timings: List[StepTiming] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        """Did this VNF reach the enrolled state?"""
        return self.error is None


@dataclass
class FleetReport:
    """What a fleet run measured — the pooled analogue of
    :class:`~repro.core.workflow.WorkflowTrace`.

    Attributes:
        results: per-VNF outcome, in submission order.
        host_attestations: one timing per distinct host (single-flight:
            the fleet attests each host once, unlike the serial loop).
        workers: pool width the run used.
        simulated_seconds / wall_seconds / clock_charges: totals.
    """

    results: Dict[str, FleetResult] = field(default_factory=dict)
    host_attestations: Dict[str, StepTiming] = field(default_factory=dict)
    workers: int = 1
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    clock_charges: Dict[str, float] = field(default_factory=dict)
    ias_connects: int = 0
    ias_reused_exchanges: int = 0

    @property
    def per_vnf(self) -> Dict[str, List[StepTiming]]:
        """Per-step timings of every successfully enrolled VNF
        (``WorkflowTrace.per_vnf`` semantics)."""
        return {name: list(result.timings)
                for name, result in self.results.items()
                if result.succeeded}

    @property
    def failed(self) -> Dict[str, str]:
        """VNF name -> ``"ExceptionType: message"`` for every failure
        (``WorkflowTrace.failed`` semantics)."""
        return {name: result.error
                for name, result in self.results.items()
                if result.error is not None}

    @property
    def fully_succeeded(self) -> bool:
        """True when every submitted VNF enrolled."""
        return all(result.succeeded for result in self.results.values())

    def step_totals(self) -> Dict[str, float]:
        """Simulated seconds per step, summed over VNFs and hosts."""
        totals: Dict[str, float] = {}
        for timing in self.host_attestations.values():
            totals[timing.step] = (
                totals.get(timing.step, 0.0) + timing.simulated_seconds
            )
        for result in self.results.values():
            for timing in result.timings:
                totals[timing.step] = (
                    totals.get(timing.step, 0.0) + timing.simulated_seconds
                )
        return totals


class FleetScheduler:
    """Drives N enrollment sessions across a bounded worker pool.

    Args:
        deployment: a wired :class:`~repro.core.workflow.Deployment`.
        workers: pool width (bounded concurrency; 1 degenerates to a
            serial loop over the same code path).
        pooled_ias: reuse one persistent IAS connection for the whole
            run (the E12 speedup lever); disable to keep the
            connection-per-verification behaviour.

    Retries follow the deployment's policy
    (:meth:`~repro.core.workflow.Deployment.set_retry_policy`).
    """

    def __init__(self, deployment, workers: int = 4,
                 pooled_ias: bool = True) -> None:
        if workers < 1:
            raise VnfSgxError("fleet needs at least one worker")
        self.deployment = deployment
        self.workers = workers
        self.pooled_ias = pooled_ias
        self._host_locks: Dict[str, threading.Lock] = {}
        self._host_errors: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------ internals

    def _ensure_host_attested(self, host_name: str) -> StepTiming:
        """Single-flight host attestation.

        The first worker that needs ``host_name`` attests it under the
        host's lock; later workers (and later VNFs on the same host)
        block on the lock, then reuse the verdict.  A host that *failed*
        attestation fails every VNF scheduled on it — the same outcome
        the serial loop reaches one enrollment at a time.
        """
        dep = self.deployment
        lock = self._host_locks[host_name]
        with lock:
            if host_name in self._host_errors:
                error = self._host_errors[host_name]
                if error is not None:
                    raise VnfSgxError(
                        f"host {host_name} failed fleet attestation: {error}"
                    )
                return self.deployment_report.host_attestations[host_name]
            sim_start = dep.clock.local_seconds()
            wall_start = time.perf_counter()
            try:
                result = dep.vm.attest_host(
                    dep.agent_clients[host_name], host_name
                )
                result.raise_if_failed(host_name)
            except ReproError as exc:
                self._host_errors[host_name] = (
                    f"{type(exc).__name__}: {exc}"
                )
                raise
            timing = StepTiming(
                step=HOST_ATTESTATION_STEP,
                simulated_seconds=dep.clock.local_seconds() - sim_start,
                wall_seconds=time.perf_counter() - wall_start,
            )
            self._host_errors[host_name] = None
            self.deployment_report.host_attestations[host_name] = timing
            return timing

    def _enroll_one(self, vnf_name: str, serial: int) -> FleetResult:
        dep = self.deployment
        host = dep.vnf_host[vnf_name]
        try:
            self._ensure_host_attested(host.name)
        except ReproError as exc:
            return FleetResult(
                vnf_name=vnf_name, host_name=host.name, state=STATE_FAILED,
                error=f"{type(exc).__name__}: {exc}",
            )
        session = EnrollmentSession(
            vm=dep.vm,
            agent=dep.agent_clients[host.name],
            host_name=host.name,
            vnf_name=vnf_name,
            controller_address=str(dep.controller_address()),
            # Per-thread elapsed time: each worker's step timings count
            # only the virtual-clock charges *it* performed, so pooled
            # timings stay comparable to serial ones.
            sim_now=dep.clock.local_seconds,
            telemetry=dep.telemetry,
            retry_policy=dep.retry_policy,
            clock=dep.clock,
            retry_rng=dep._retry_rng,
            reserved_serial=serial,
        )
        # The host was attested fleet-wide (single-flight) above.
        session.state = STATE_HOST_ATTESTED
        try:
            session.provision()
            if dep.client_validation == "keystore":
                dep.keystore.add_trusted(
                    vnf_name, dep.vm.issued_certificate(vnf_name)
                )
            session.connect(dep.enclave_client(vnf_name))
        except ReproError as exc:
            return FleetResult(
                vnf_name=vnf_name, host_name=host.name, state=session.state,
                certificate_serial=session.certificate_serial,
                timings=list(session.timings),
                error=f"{type(exc).__name__}: {exc}",
            )
        return FleetResult(
            vnf_name=vnf_name, host_name=host.name, state=session.state,
            certificate_serial=session.certificate_serial,
            timings=list(session.timings),
        )

    # -------------------------------------------------------------- running

    def enroll(self, vnf_names: Optional[Sequence[str]] = None
               ) -> FleetReport:
        """Enroll ``vnf_names`` (default: every VNF) across the pool.

        Returns a :class:`FleetReport`; failures are recorded per VNF,
        never raised (partial-failure semantics).
        """
        dep = self.deployment
        names = list(vnf_names if vnf_names is not None else dep.vnf_names)
        unknown = [name for name in names if name not in dep.vnf_host]
        if unknown:
            raise VnfSgxError(f"unknown VNFs: {', '.join(unknown)}")
        if len(set(names)) != len(names):
            raise VnfSgxError("duplicate VNF names in fleet submission")

        report = FleetReport(workers=self.workers)
        self.deployment_report = report
        self._host_locks = {
            dep.vnf_host[name].name: make_lock("host") for name in names
        }
        self._host_errors = {}

        # Reserve serials in submission order *before* dispatch: the
        # certificate each VNF receives is then independent of worker
        # interleaving and identical to a serial loop's.
        serials = {name: dep.vm.ca.reserve_serial() for name in names}

        pooled = dep.pooled_ias_client() if self.pooled_ias else None
        previous_ias = (dep.vm.swap_ias_client(pooled)
                        if pooled is not None else None)
        sim_start = dep.clock.now()
        wall_start = time.perf_counter()
        dep.clock.reset_charges()
        try:
            if not names:
                return report
            if self.workers == 1:
                outcomes = [self._enroll_one(name, serials[name])
                            for name in names]
            else:
                with ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="fleet") as pool:
                    outcomes = list(pool.map(
                        self._enroll_one, names,
                        [serials[name] for name in names],
                    ))
            for outcome in outcomes:
                report.results[outcome.vnf_name] = outcome
            return report
        finally:
            if pooled is not None:
                dep.vm.swap_ias_client(previous_ias)
                report.ias_connects = pooled.connects
                report.ias_reused_exchanges = pooled.reused_exchanges
                pooled.close()
            report.simulated_seconds = dep.clock.now() - sim_start
            report.wall_seconds = time.perf_counter() - wall_start
            report.clock_charges = dep.clock.charges()
