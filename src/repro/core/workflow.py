"""The executable Figure 1: a complete deployment in one object.

:class:`Deployment` assembles every box in the paper's architecture
diagram — network controller with its northbound endpoints, forwarding
plane, IAS, Verification Manager, an SGX-capable container host running
IMA, containerized VNFs with their credential enclaves — on one simulated
network with one virtual clock, and :meth:`Deployment.run_workflow`
executes steps 1-6 for every VNF, returning the measured trace.

Examples and benchmarks build on this class; its constructor knobs cover
every experimental axis (TPM rooting, the keystore-vs-CA validation
model, SGX cost parameters, fleet size).  The controller always serves
all three northbound security modes.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.containers.host import ContainerHost
from repro.containers.image import build_image
from repro.containers.registry import Registry
from repro.core.appraisal import ExpectedValues
from repro.core.attestation_enclave import AttestationEnclave
from repro.core.credential_enclave import CredentialEnclave, EnclaveBackedClient
from repro.core.enrollment import (
    HOST_ATTESTATION_STEP,
    STATE_FAILED,
    EnrollmentSession,
    StepTiming,
)
from repro.core.fleet import PooledIasClient, SingleFlightHosts
from repro.core.host_agent import HostAgent, HostAgentClient
from repro.core.policy import DeploymentPolicy
from repro.core.verification_manager import VerificationManager
from repro.crypto.keys import generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import ReproError, VnfSgxError
from repro.ias.api import IasClient, IasHttpService
from repro.ias.service import IasService
from repro.net.address import Address
from repro.net.clock import VirtualClock
from repro.net.faults import FaultPlan
from repro.net.retry import NO_RETRY, RetryPolicy
from repro.net.simnet import Network
from repro.obs.metrics import NULL_TELEMETRY
from repro.pki.keystore import Keystore
from repro.pki.name import DistinguishedName
from repro.sdn.controller import FloodlightController
from repro.sdn.northbound import (
    MODE_HTTP,
    MODE_HTTPS,
    MODE_RATLS,
    MODE_TRUSTED,
    NorthboundEndpoint,
    keystore_validator,
)
from repro.sdn.switch import Switch
from repro.sdn.vnf import VnfRestClient
from repro.sgx.ecall import CostModel
from repro.tls import TlsConfig

CONTROLLER_HOST = "controller"
IAS_ADDRESS = Address("ias.intel.example", 443)
MODE_PORTS = {MODE_HTTP: 8080, MODE_HTTPS: 8443, MODE_TRUSTED: 9443,
              MODE_RATLS: 10443}

#: Where the Verification Manager serves ``/metrics`` and ``/traces``
#: once telemetry is enabled.
TELEMETRY_ADDRESS = Address("verification-manager", 9100)

#: Where the key-manager REST API listens once :meth:`Deployment.build_kms`
#: is called with ``serve=True``.
KMS_ADDRESS = Address("verification-manager", 7100)

VALIDATION_CA = "ca"
VALIDATION_KEYSTORE = "keystore"


@dataclass
class WorkflowTrace:
    """Everything one enrollment run measured: the serial loop
    (:meth:`Deployment.run_workflow`) or a fleet
    (:meth:`Deployment.enroll_fleet`).

    Attributes:
        results: VNF name -> its
            :class:`~repro.core.enrollment.EnrollmentSession`, in
            submission order: host, state, certificate serial, the steps
            it finished and, if it failed, its ``error``.  In a fleet run
            the host step appears in the timings of the VNF that ran it.
        workers: pool width (1 for the serial loop).
        simulated_seconds / wall_seconds / clock_charges: run totals.
        ias_connects / ias_reused_exchanges: the fleet's pooled IAS
            connection (zero for the serial loop, which dials IAS per
            verification).
    """

    results: Dict[str, EnrollmentSession] = field(default_factory=dict)
    workers: int = 1
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    clock_charges: Dict[str, float] = field(default_factory=dict)
    ias_connects: int = 0
    ias_reused_exchanges: int = 0

    @property
    def per_vnf(self) -> Dict[str, List[StepTiming]]:
        """Per-step timings of every *successfully* enrolled VNF."""
        return {name: list(session.timings)
                for name, session in self.results.items()
                if session.succeeded}

    @property
    def failed(self) -> Dict[str, str]:
        """VNF name -> ``"ExceptionType: message"`` for every VNF whose
        enrollment failed; the run continues past them (partial-failure
        semantics — one bad host must not abort a deployment of
        thousands)."""
        return {name: session.error
                for name, session in self.results.items()
                if session.error is not None}

    @property
    def fully_succeeded(self) -> bool:
        """True when every VNF in the run enrolled."""
        return not self.failed

    @property
    def host_attestations(self) -> Dict[str, List[StepTiming]]:
        """Host name -> its host-attestation steps: one per VNF in the
        serial loop, one per host in a fleet (single-flight)."""
        hosts: Dict[str, List[StepTiming]] = {}
        for session in self.results.values():
            for timing in session.timings:
                if timing.step == HOST_ATTESTATION_STEP:
                    hosts.setdefault(session.host_name, []).append(timing)
        return hosts

    def step_totals(self) -> Dict[str, float]:
        """Simulated seconds per workflow step, summed over every step
        any VNF finished."""
        totals: Dict[str, float] = {}
        for session in self.results.values():
            for timing in session.timings:
                totals[timing.step] = (
                    totals.get(timing.step, 0.0) + timing.simulated_seconds
                )
        return totals


def _in_order(fn: Callable, items: List[str],
              workers: int) -> Iterator[EnrollmentSession]:
    """``fn`` over ``items``, inline or across ``workers`` threads;
    yields the results in submission order."""
    if workers == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers,
                            thread_name_prefix="fleet") as pool:
        yield from pool.map(fn, items)


class Deployment:
    """One fully wired SDN deployment (the paper's Figure 1).

    Args:
        seed: DRBG seed; equal seeds give bit-identical runs.
        vnf_count: number of VNFs (the paper's figure shows two).
        with_tpm: enable the TPM-rooted IMA configuration (paper §4).
        client_validation: ``"ca"`` (the paper's design) or ``"keystore"``
            (stock Floodlight) for the trusted mode.
        cost_model: SGX transition cost parameters.
        retry_policy: optional :class:`~repro.net.retry.RetryPolicy`
            for the whole pipeline (see :meth:`set_retry_policy`);
            ``None`` keeps the zero-tolerance behaviour.
    """

    def __init__(self, seed: bytes = b"vnf-sgx-deployment",
                 vnf_count: int = 2, with_tpm: bool = False,
                 client_validation: str = VALIDATION_CA,
                 cost_model: Optional[CostModel] = None,
                 host_count: int = 1,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if client_validation not in (VALIDATION_CA, VALIDATION_KEYSTORE):
            raise VnfSgxError(
                f"unknown validation model {client_validation!r}"
            )
        if host_count < 1:
            raise VnfSgxError("need at least one container host")
        self._seed = bytes(seed)
        self.rng = HmacDrbg(seed)
        self.clock = VirtualClock()
        self.network = Network(self.clock)
        self.client_validation = client_validation

        # --- Intel Attestation Service -------------------------------
        self.ias = IasService(rng=self.rng, now=self.clock.now_seconds)
        self.ias_http = IasHttpService(self.ias, self.network, IAS_ADDRESS,
                                       rng=self.rng)
        self.ias_client = IasClient(
            self.network, IAS_ADDRESS, self.ias_http.ias_truststore,
            self.ias.report_signing_public_key, rng=self.rng,
        )

        # --- Verification Manager ------------------------------------
        self.expected_values = ExpectedValues()
        self.policy = DeploymentPolicy(require_tpm=with_tpm)
        self.vm = VerificationManager(
            self.ias_client, self.policy, self.expected_values,
            rng=self.rng, clock=self.clock,
        )

        # --- Controller + forwarding plane ----------------------------
        self.controller = FloodlightController()
        switch_a, switch_b = Switch("00:00:01"), Switch("00:00:02")
        self.controller.register_switch(switch_a)
        self.controller.register_switch(switch_b)
        self.controller.topology.add_link("00:00:01", 3, "00:00:02", 3)
        self.controller.topology.attach_host("h1", "00:00:01", 1)
        self.controller.topology.attach_host("h2", "00:00:02", 1)

        self.server_key = generate_keypair(self.rng)
        self.server_cert = self.vm.ca.issue_server_certificate(
            DistinguishedName(CONTROLLER_HOST),
            self.server_key.public.to_bytes(),
            now=self.clock.now_seconds(),
        )
        server_key, server_cert = self.server_key, self.server_cert
        self.keystore = Keystore()
        self.endpoints: Dict[str, NorthboundEndpoint] = {}
        for mode in (MODE_HTTP, MODE_HTTPS, MODE_TRUSTED):
            address = Address(CONTROLLER_HOST, MODE_PORTS[mode])
            tls_config = None
            if mode != MODE_HTTP:
                tls_config = TlsConfig(
                    certificate_chain=[server_cert],
                    private_key=server_key,
                    truststore=self.vm.controller_truststore(),
                    rng=self.rng,
                )
                if (mode == MODE_TRUSTED
                        and client_validation == VALIDATION_KEYSTORE):
                    tls_config.client_validator = keystore_validator(
                        self.keystore
                    )
                if mode == MODE_TRUSTED:
                    self.vm.subscribe_crl(tls_config)
            self.endpoints[mode] = NorthboundEndpoint(
                self.controller, self.network, address, mode, tls_config
            )

        # --- Container hosts ------------------------------------------
        self.vendor_key = generate_keypair(self.rng)
        self.hosts: List[ContainerHost] = []
        self.agents: Dict[str, HostAgent] = {}
        self.agent_clients: Dict[str, HostAgentClient] = {}
        self.attestation_enclaves: Dict[str, AttestationEnclave] = {}
        for index in range(1, host_count + 1):
            host = ContainerHost(
                f"container-host-{index}", clock=self.clock, rng=self.rng,
                with_tpm=with_tpm, cost_model=cost_model,
            )
            host.boot()
            for path in host.filesystem.list_files():
                self.expected_values.allow_content(
                    path, host.filesystem.read_file(path)
                )
            self.ias.register_platform(host.platform)
            if with_tpm:
                self.vm.register_host_tpm(host.name, host.tpm.aik_public)
            attestation = AttestationEnclave(host, self.vendor_key)
            agent = HostAgent(host, attestation, self.network)
            self.hosts.append(host)
            self.attestation_enclaves[host.name] = attestation
            self.agents[host.name] = agent
            self.agent_clients[host.name] = HostAgentClient(
                self.network, agent.address
            )

        # Telemetry is opt-in; see enable_telemetry().
        self.telemetry_endpoint = None

        # The key manager is opt-in; see build_kms().
        self.kms = None
        self.kms_endpoint = None

        # The RA-TLS attested channel is opt-in; see build_ratls().
        self.ratls_verifier = None
        self.ratls_endpoint = None
        self.ratls_ias_pool = None

        # The trusted controller fabric is opt-in; see build_fabric().
        self.fabric = None

        # Single-host compatibility aliases (the common configuration).
        self.host = self.hosts[0]
        self.attestation_enclave = self.attestation_enclaves[self.host.name]
        self.agent = self.agents[self.host.name]
        self.agent_client = self.agent_clients[self.host.name]

        # --- VNF containers and enclaves ------------------------------
        self.registry = Registry()
        self.vnf_names: List[str] = []
        self.vnf_host: Dict[str, ContainerHost] = {}
        self.credential_enclaves: Dict[str, CredentialEnclave] = {}
        for index in range(1, vnf_count + 1):
            vnf_name = f"vnf-{index}"
            host = self.hosts[(index - 1) % host_count]
            image = build_image(
                vnf_name, "1.0",
                {"/usr/bin/vnf": f"vnf-binary-{vnf_name}".encode()},
            )
            self.registry.push(image)
            container = host.deploy(self.registry, image.reference,
                                    labels={"vnf": vnf_name})
            self.expected_values.allow_image(container.root_path, image)
            enclave = CredentialEnclave(host, self.vendor_key,
                                        self.network, vnf_name)
            self.agents[host.name].register_vnf(enclave)
            self.credential_enclaves[vnf_name] = enclave
            self.vnf_names.append(vnf_name)
            self.vnf_host[vnf_name] = host

        if retry_policy is not None:
            self.set_retry_policy(retry_policy)

    # ----------------------------------------------------------- resilience

    @property
    def retry_policy(self) -> RetryPolicy:
        """The deployment's retry policy: its clock's, ``NO_RETRY``
        until :meth:`set_retry_policy` sets another."""
        return self.clock.retry_policy

    def set_retry_policy(self, policy: Optional[RetryPolicy]) -> None:
        """Set the retry policy of the whole deployment.

        The policy lives on the clock, with a fresh backoff-jitter DRBG
        derived from the deployment seed (so the main ``rng`` stream —
        and therefore every key, nonce and quote — is unchanged by
        retrying).  Every network client on the deployment's network
        (the IAS client and any pooled one, every host-agent stub, the
        baseline northbound clients) and every enrollment step reads it
        when it runs, whenever it was built.  ``None`` restores the
        zero-tolerance default, :data:`~repro.net.retry.NO_RETRY`.
        """
        self.clock.retry_rng = HmacDrbg(self._seed,
                                        personalization=b"retry-jitter")
        self.clock.retry_policy = NO_RETRY if policy is None else policy

    def install_faults(self, plan: Optional[FaultPlan]) -> None:
        """Install (or clear, with ``None``) a fault plan on the network."""
        self.network.install_faults(plan)

    # ------------------------------------------------------------ telemetry

    @property
    def telemetry(self):
        """The deployment's telemetry: its clock's, ``NULL_TELEMETRY``
        while telemetry is off."""
        return self.clock.telemetry

    def enable_telemetry(self, serve: bool = True,
                         address: Address = TELEMETRY_ADDRESS):
        """Turn on the observability subsystem for the whole deployment.

        Creates a :class:`repro.obs.Telemetry` over a fresh registry of
        its own, on this deployment's virtual clock, and sets it as the
        clock's ``telemetry``; two deployments in one process keep
        separate metrics and spans.  Every emitting component reads that
        attribute from the clock it holds when it emits: the
        Verification Manager (with its audit log and RA-TLS verifiers),
        the IAS endpoint and clients, the host-agent stubs, every
        northbound endpoint, every host's transition accountant, every
        TLS client handshake on this network (the in-enclave ones
        included), and whatever :meth:`build_kms`, :meth:`build_ratls`
        and :meth:`build_fabric` build, before or after this call.  Then
        (``serve=True``) it mounts ``GET /metrics`` and ``GET /traces``
        at ``address`` on the simulated network.

        Observation never advances the virtual clock, so enabling
        telemetry does not change workflow timings; only an actual scrape
        charges network time, like any other traffic.

        Returns the :class:`~repro.obs.Telemetry` (idempotent: repeated
        calls return the existing one).
        """
        if self.telemetry is not NULL_TELEMETRY:
            return self.telemetry
        from repro.obs import MetricsRegistry, Telemetry, TelemetryEndpoint

        self.clock.telemetry = Telemetry(registry=MetricsRegistry(),
                                         now=self.clock.now)
        if serve:
            self.telemetry_endpoint = TelemetryEndpoint(
                self.telemetry, self.network, address
            )
        return self.telemetry

    def disable_telemetry(self) -> None:
        """Give the clock the null telemetry back, so every component
        stops recording, and stop serving ``/metrics``."""
        if self.telemetry is NULL_TELEMETRY:
            return
        self.clock.telemetry = NULL_TELEMETRY
        if self.telemetry_endpoint is not None:
            self.telemetry_endpoint.close()
            self.telemetry_endpoint = None

    def scrape_metrics(self) -> str:
        """``GET /metrics`` over the simulated network (telemetry must be
        enabled with ``serve=True``)."""
        from repro.obs import scrape_text

        if self.telemetry_endpoint is None:
            raise VnfSgxError("telemetry endpoint is not serving")
        return scrape_text(self.network, self.telemetry_endpoint.address)

    def scrape_traces(self) -> list:
        """``GET /traces`` over the simulated network, parsed from JSON."""
        from repro.obs import scrape_traces

        if self.telemetry_endpoint is None:
            raise VnfSgxError("telemetry endpoint is not serving")
        return scrape_traces(self.network, self.telemetry_endpoint.address)

    # ---------------------------------------------------------- key manager

    def build_kms(self, shard_count: int = 4, seed: bytes = b"kms-service",
                  serve: bool = True, address: Address = KMS_ADDRESS):
        """Attach a :class:`repro.kms.KeyManagerService` to this deployment.

        The service hangs off the Verification Manager's CA (tenant
        tokens are derived from enrolled credentials) and parks its shard
        identities in the deployment keystore, but draws all randomness
        from its *own* DRBG stream — attaching a KMS does not perturb the
        deployment's enrollment transcripts.  With ``serve=True`` the
        REST endpoint listens at ``address`` on the simulated network.
        """
        from repro.kms import KeyManagerService, KmsEndpoint

        self.kms = KeyManagerService(
            self.vm.ca, self.clock, seed=seed, shard_count=shard_count,
            keystore=self.keystore,
        )
        if serve:
            self.kms_endpoint = KmsEndpoint(self.kms, self.network, address)
        return self.kms

    def kms_client(self, tenant: str, token: str, source_host: str = ""):
        """A :class:`repro.kms.KmsClient` for one tenant (defaults to
        originating from the first container host)."""
        from repro.kms import KmsClient

        if self.kms_endpoint is None:
            raise VnfSgxError("KMS endpoint is not serving; call build_kms()")
        return KmsClient(self.network, self.kms_endpoint.address, tenant,
                         token, source_host or self.host.name)

    # --------------------------------------------------------------- RA-TLS

    def build_ratls(self):
        """Serve the RA-TLS northbound mode (opt-in, idempotent).

        Creates a :class:`~repro.tls.ratls.RatlsVerifier` wired to the
        Verification Manager's IAS path and policy, attaches it to a
        dedicated session cache (so revocation can evict attested
        sessions), and mounts a ``ratls-https`` northbound endpoint whose
        client validation is the verifier.  Returns the verifier.

        The Verification Manager's IAS client is swapped for a
        :class:`~repro.core.fleet.PooledIasClient` for the endpoint's
        lifetime: the verifier is a long-lived controller-side service
        attesting many handshakes, exactly the amortization a fleet run
        applies (and, per experiment E12, byte-identical to per-verify
        dialing).
        """
        if self.ratls_verifier is not None:
            return self.ratls_verifier
        from repro.tls import SessionCache

        verifier = self.vm.ratls_verifier()
        session_cache = SessionCache()
        verifier.attach_session_cache(session_cache)
        self.ratls_ias_pool = self.pooled_ias_client()
        self.vm.swap_ias_client(self.ratls_ias_pool)
        tls_config = TlsConfig(
            certificate_chain=[self.server_cert],
            private_key=self.server_key,
            client_validator=verifier.validate,
            resumption_validator=verifier.resumable,
            session_cache=session_cache,
            rng=self.rng,
        )
        self.ratls_endpoint = NorthboundEndpoint(
            self.controller, self.network,
            self.controller_address(MODE_RATLS), MODE_RATLS, tls_config,
        )
        self.endpoints[MODE_RATLS] = self.ratls_endpoint
        self.ratls_verifier = verifier
        return verifier

    def enroll_ratls(self, vnf_name: str):
        """Enroll one VNF over the RA-TLS attested channel; returns the
        completed :class:`~repro.core.ratls_enrollment.RatlsEnrollmentSession`.

        Credential preparation is host-local (no Verification Manager
        round trips); the attestation happens inside the first controller
        handshake, verified by the endpoint's
        :class:`~repro.tls.ratls.RatlsVerifier`.
        """
        from repro.core.ratls_enrollment import RatlsEnrollmentSession

        verifier = self.build_ratls()
        anchors = tuple(
            anchor.to_bytes()
            for anchor in self.vm.controller_truststore().anchors()
        )
        session = RatlsEnrollmentSession(
            enclave=self.credential_enclaves[vnf_name],
            verifier=verifier,
            basename=self.policy.basename,
            anchors=anchors,
            controller_address=str(self.controller_address(MODE_RATLS)),
            clock=self.clock,
        )
        with self.telemetry.span("ratls-enrollment", vnf=vnf_name):
            session.run(self.enclave_client(vnf_name))
        return session

    # ----------------------------------------------------- trusted fabric

    def build_fabric(self, replica_count: int = 3,
                     endpoint_count: int = 0):
        """Grow the single controller into a trusted fabric (opt-in,
        idempotent): ``replica_count`` controller replicas sharing this
        deployment's topology, with the existing controller wrapped as
        rank 0 and every CA trust anchor replicated to every replica's
        keystore.  Returns the :class:`~repro.sdn.fabric.TrustedFabric`.

        The fabric draws no randomness and consumes no CA serials, so
        building one leaves every credential the deployment issues
        byte-identical to the single-controller path (gated in E15).
        """
        if self.fabric is not None:
            return self.fabric
        from repro.sdn.fabric import TrustedFabric

        fabric = TrustedFabric(
            self.network, replica_count=replica_count,
            topology=self.controller.topology,
            primary_controller=self.controller,
            vm=self.vm,
        )
        for anchor in self.vm.controller_truststore().anchors():
            fabric.anchor_ca(anchor.subject.common_name, anchor.to_bytes())
        if endpoint_count:
            fabric.add_endpoints(endpoint_count)
        self.fabric = fabric
        return fabric

    def enroll_fabric(self, vnf_name: str) -> EnrollmentSession:
        """Enroll one VNF through the fabric: the standard steps 1-6,
        then fabric-wide replication of the issued credential (keyed by
        the VNF's container host, so :meth:`~repro.sdn.fabric.
        TrustedFabric.distrust_host` can revoke it)."""
        fabric = self.build_fabric()
        session = self.enroll(vnf_name)
        fabric.submit_credential(
            vnf_name,
            self.vm.issued_certificate(vnf_name).to_bytes(),
            host=self.vnf_host[vnf_name].name,
        )
        return session

    # ------------------------------------------------------------ accessors

    def pooled_ias_client(self) -> PooledIasClient:
        """A fresh :class:`~repro.core.fleet.PooledIasClient` to this
        deployment's IAS."""
        return PooledIasClient(
            self.network, IAS_ADDRESS, self.ias_http.ias_truststore,
            self.ias.report_signing_public_key, rng=self.rng,
        )

    def controller_address(self, mode: str = MODE_TRUSTED) -> Address:
        """The northbound address serving ``mode``."""
        return Address(CONTROLLER_HOST, MODE_PORTS[mode])

    def enclave_client(self, vnf_name: str) -> EnclaveBackedClient:
        """The SGX-protected controller client of one VNF."""
        return self.credential_enclaves[vnf_name].client

    def baseline_client(self, mode: str = MODE_HTTPS,
                        client_chain=None, client_key=None) -> VnfRestClient:
        """An unprotected (no-enclave) client for comparison experiments."""
        return VnfRestClient(
            self.network, self.controller_address(mode), self.host.name,
            mode, truststore=self.vm.controller_truststore(),
            client_chain=client_chain, client_key=client_key, rng=self.rng,
        )

    # -------------------------------------------------------------- running

    def enroll(self, vnf_name: str, csr: bool = False) -> EnrollmentSession:
        """Run steps 1-6 for one VNF; returns the completed session.

        ``csr`` picks the key custody of step 5: by default the
        Verification Manager generates the key pair and delivers it to
        the attested enclave (the paper's path); with ``csr=True`` the
        enclave generates it and the VM signs its CSR, so the private key
        never leaves the enclave (experiment E9).  Either way the VNF
        takes the same steps, retries, keystore update and spans.
        """
        session = self._session(vnf_name, csr=csr)
        self._drive(session, EnrollmentSession.attest_host)
        return session

    def _session(self, vnf_name: str, serial: Optional[int] = None,
                 csr: bool = False) -> EnrollmentSession:
        """A fresh enrollment session for one VNF (``serial``: one
        reserved in submission order by a fleet run)."""
        host = self.vnf_host[vnf_name]
        return EnrollmentSession(
            vm=self.vm,
            agent=self.agent_clients[host.name],
            host_name=host.name,
            vnf_name=vnf_name,
            controller_address=str(self.controller_address(MODE_TRUSTED)),
            reserved_serial=serial,
            csr=csr,
        )

    def _drive(self, session: EnrollmentSession,
               attest_host: Callable[[EnrollmentSession], None]) -> None:
        """Steps 1-6 for one session under its ``enrollment`` span;
        ``attest_host(session)`` is the run's host policy (every VNF in
        the serial loop, single-flight in a fleet)."""
        vnf_name = session.vnf_name
        with self.telemetry.span("enrollment", vnf=vnf_name,
                                 host=session.host_name):
            attest_host(session)
            session.provision()
            if self.client_validation == VALIDATION_KEYSTORE:
                # Stock Floodlight: each new credential needs a keystore
                # entry before the first connection; in CA mode this update
                # simply never happens (the point of experiment E3).
                self.keystore.add_trusted(
                    vnf_name, self.vm.issued_certificate(vnf_name)
                )
            session.connect(self.enclave_client(vnf_name))

    def enroll_fleet(self, vnf_names: Optional[Iterable[str]] = None,
                     workers: int = 4) -> WorkflowTrace:
        """Enroll many VNFs (default: every VNF) across a bounded worker
        pool.

        Each VNF takes :meth:`enroll`'s own path, with three run-level
        amortizations: each distinct host is attested exactly once
        (:class:`~repro.core.fleet.SingleFlightHosts`), all IAS
        verifications share one pooled connection, and serials are
        reserved in submission order.  Key material comes from per-VNF
        DRBGs, so the issued certificates are byte-identical to a serial
        :meth:`enroll` loop's (experiment E12 asserts this).  Retries
        follow the deployment's :attr:`retry_policy`, host step included.

        Returns a :class:`WorkflowTrace` with :meth:`run_workflow`'s
        partial-failure semantics.
        """
        names = self.vnf_names if vnf_names is None else vnf_names
        return self._run(list(names), workers, fleet=True)

    def run_workflow(self) -> WorkflowTrace:
        """Execute the full Figure 1 workflow for every VNF, one at a time.

        Partial-failure semantics: one VNF whose enrollment fails (host
        down, IAS outage outlasting the retry budget, appraisal
        rejection, ...) is recorded in :attr:`WorkflowTrace.failed` and
        the run continues — it does not abort the deployment.  Every VNF
        takes :meth:`enroll`'s path, host attestation included.
        """
        return self._run(list(self.vnf_names), 1, fleet=False)

    def _run(self, names: List[str], workers: int,
             fleet: bool) -> WorkflowTrace:
        """The one run loop behind :meth:`run_workflow` and
        :meth:`enroll_fleet`; ``fleet`` selects single-flight hosts, the
        pooled IAS connection and reserved serials."""
        unknown = [name for name in names if name not in self.vnf_host]
        if unknown:
            raise VnfSgxError(f"unknown VNFs: {', '.join(unknown)}")
        if len(set(names)) != len(names):
            raise VnfSgxError("duplicate VNF names in fleet submission")
        if workers < 1:
            raise VnfSgxError("fleet needs at least one worker")

        tel = self.telemetry
        trace = WorkflowTrace(workers=workers)
        attest_host = EnrollmentSession.attest_host
        serials: Dict[str, int] = {}
        pooled = previous_ias = None
        if fleet:
            attest_host = SingleFlightHosts(
                self.vnf_host[name].name for name in names
            ).attest
            # Reserve serials in submission order *before* dispatch: the
            # certificate each VNF receives is then independent of worker
            # interleaving and identical to a serial loop's.
            serials = {name: self.vm.ca.reserve_serial() for name in names}
            pooled = self.pooled_ias_client()
            previous_ias = self.vm.swap_ias_client(pooled)

        def enroll_one(vnf_name: str) -> EnrollmentSession:
            session = self._session(vnf_name, serials.get(vnf_name))
            try:
                self._drive(session, attest_host)
            except ReproError as exc:
                session.state = STATE_FAILED
                session.error = f"{type(exc).__name__}: {exc}"
            return session

        sim_start = self.clock.now()
        wall_start = time.perf_counter()
        self.clock.reset_charges()
        try:
            with tel.span("figure1-workflow",
                          vnfs=len(names)) as workflow_span:
                # Failures are recorded here, on the calling thread, so
                # workers never write to the run's root span.
                for session in _in_order(enroll_one, names, workers):
                    trace.results[session.vnf_name] = session
                    if session.error is not None:
                        tel.workflow_vnf_failures.inc()
                        workflow_span.add_event(
                            "vnf-enrollment-failed", timestamp=tel.now(),
                            vnf=session.vnf_name, error=session.error,
                        )
            tel.workflows.inc()
        finally:
            if pooled is not None:
                self.vm.swap_ias_client(previous_ias)
                trace.ias_connects = pooled.connects
                trace.ias_reused_exchanges = pooled.reused_exchanges
                pooled.close()
        trace.simulated_seconds = self.clock.now() - sim_start
        trace.wall_seconds = time.perf_counter() - wall_start
        trace.clock_charges = self.clock.charges()
        return trace
