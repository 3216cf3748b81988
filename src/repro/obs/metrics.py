"""The deployment's instrument panel.

One :class:`Telemetry` object bundles a :class:`~repro.obs.registry.
MetricsRegistry`, a :class:`~repro.obs.tracing.Tracer` and the simulated
time source, and pre-registers every metric the instrumented hot paths
emit.  A deployment keeps it on its virtual clock, where components read
it when they emit.  Until one is set the clock holds
:data:`NULL_TELEMETRY`: the same class built over a registry and a tracer
that keep nothing, so an instrumented path runs the same code either way
and, with telemetry off, each update is a no-op call that records nothing
and reads no clock.

Metric naming follows the Prometheus conventions: ``vnf_sgx_`` prefix,
``_total`` suffix for counters, ``_seconds`` for time histograms, labels
for bounded dimensions only (step names, verdicts, security modes — never
per-VNF identifiers on high-cardinality paths).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.tracing import Span, Tracer

# ------------------------------------------------------------- metric names

M_AUDIT_EVENTS = "vnf_sgx_audit_events_total"
M_HOST_ATTESTATION_SECONDS = "vnf_sgx_host_attestation_seconds"
M_VNF_ATTESTATION_SECONDS = "vnf_sgx_vnf_attestation_seconds"
M_IAS_VERIFICATION_SECONDS = "vnf_sgx_ias_verification_seconds"
M_IAS_VERDICTS = "vnf_sgx_ias_verdicts_total"
M_CREDENTIALS_ISSUED = "vnf_sgx_credentials_issued_total"
M_PROVISIONING_SECONDS = "vnf_sgx_provisioning_seconds"
M_TLS_HANDSHAKE_SECONDS = "vnf_sgx_tls_handshake_seconds"
M_NORTHBOUND_REQUESTS = "vnf_sgx_northbound_requests_total"
M_ECALLS = "vnf_sgx_enclave_ecalls_total"
M_OCALLS = "vnf_sgx_enclave_ocalls_total"
M_BOUNDARY_BYTES = "vnf_sgx_enclave_boundary_bytes_total"
M_WORKFLOW_STEP_SECONDS = "vnf_sgx_workflow_step_seconds"
M_WORKFLOWS = "vnf_sgx_workflows_total"
M_ENROLLED_VNFS = "vnf_sgx_enrolled_vnfs"
M_RETRY_ATTEMPTS = "vnf_sgx_retry_attempts_total"
M_RETRY_GIVEUPS = "vnf_sgx_retry_giveups_total"
M_RETRY_BACKOFF_SECONDS = "vnf_sgx_retry_backoff_seconds"
M_WORKFLOW_VNF_FAILURES = "vnf_sgx_workflow_vnf_failures_total"
M_VERIFICATION_CACHE = "vnf_sgx_verification_cache_total"
M_EC_OPS = "vnf_sgx_ec_ops"
M_KMS_REQUESTS = "vnf_sgx_kms_requests_total"
M_KMS_REQUEST_SECONDS = "vnf_sgx_kms_request_seconds"
M_KMS_SECRETS = "vnf_sgx_kms_secrets"
M_RATLS_VALIDATIONS = "vnf_sgx_ratls_validations_total"
M_RATLS_RESUMPTIONS = "vnf_sgx_ratls_resumption_checks_total"
M_FABRIC_REPLICATIONS = "vnf_sgx_fabric_replication_entries_total"
M_FABRIC_FANOUT_SECONDS = "vnf_sgx_fabric_fanout_seconds"
M_FABRIC_CONVERGENCE_SECONDS = "vnf_sgx_fabric_convergence_seconds"
M_FABRIC_REHOMES = "vnf_sgx_fabric_switch_rehomes_total"


class Telemetry:
    """Registry + tracer + clock, with the standard instruments created.

    Args:
        registry: metrics registry (defaults to the process-wide one).
        now: simulated-time source; pass ``deployment.clock.now``.
        tracer: span tracer (created on ``now`` if not supplied).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 now: Callable[[], float] = lambda: 0.0,
                 tracer: Optional[Tracer] = None) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.now = now
        self.tracer = tracer or Tracer(now=now)
        r = self.registry

        self.audit_events = r.counter(
            M_AUDIT_EVENTS,
            "Verification Manager audit-log events by kind",
            labelnames=("kind",),
        )
        self.host_attestation_seconds = r.histogram(
            M_HOST_ATTESTATION_SECONDS,
            "Simulated time for host attestation + appraisal (steps 1-2)",
            labelnames=("result",),
        )
        self.vnf_attestation_seconds = r.histogram(
            M_VNF_ATTESTATION_SECONDS,
            "Simulated time for credential-enclave attestation (steps 3-4)",
            labelnames=("variant",),
        )
        self.ias_verification_seconds = r.histogram(
            M_IAS_VERIFICATION_SECONDS,
            "Simulated round-trip time of one IAS quote verification",
        )
        self.ias_verdicts = r.counter(
            M_IAS_VERDICTS,
            "IAS quote verdicts by status string",
            labelnames=("status",),
        )
        self.credentials_issued = r.counter(
            M_CREDENTIALS_ISSUED,
            "Client certificates issued, by provisioning variant",
            labelnames=("variant",),
        )
        self.provisioning_seconds = r.histogram(
            M_PROVISIONING_SECONDS,
            "Simulated time for attest+issue+provision (steps 3-5)",
            labelnames=("variant",),
        )
        self.tls_handshake_seconds = r.histogram(
            M_TLS_HANDSHAKE_SECONDS,
            "Simulated TLS handshake time",
            labelnames=("role", "resumed"),
        )
        self.northbound_requests = r.counter(
            M_NORTHBOUND_REQUESTS,
            "Controller northbound REST requests",
            labelnames=("mode", "method", "status"),
        )
        self.ecalls = r.counter(
            M_ECALLS, "Enclave ECALL transitions", labelnames=("platform",),
        )
        self.ocalls = r.counter(
            M_OCALLS, "Enclave OCALL transitions", labelnames=("platform",),
        )
        self.boundary_bytes = r.counter(
            M_BOUNDARY_BYTES,
            "Bytes copied across the enclave boundary",
            labelnames=("platform",),
        )
        self.workflow_step_seconds = r.histogram(
            M_WORKFLOW_STEP_SECONDS,
            "Simulated time per Figure 1 workflow step",
            labelnames=("step",),
        )
        self.workflows = r.counter(
            M_WORKFLOWS, "Completed Figure 1 workflow runs",
        )
        self.enrolled_vnfs = r.gauge(
            M_ENROLLED_VNFS, "VNFs currently holding provisioned credentials",
        )
        self.retry_attempts = r.counter(
            M_RETRY_ATTEMPTS,
            "Transient-failure re-attempts by pipeline operation",
            labelnames=("operation",),
        )
        self.retry_giveups = r.counter(
            M_RETRY_GIVEUPS,
            "Operations abandoned after exhausting their retry policy",
            labelnames=("operation",),
        )
        self.retry_backoff_seconds = r.histogram(
            M_RETRY_BACKOFF_SECONDS,
            "Simulated backoff slept before each re-attempt",
        )
        self.workflow_vnf_failures = r.counter(
            M_WORKFLOW_VNF_FAILURES,
            "VNFs whose enrollment failed during a workflow run "
            "(recorded in WorkflowTrace.failed, fleet continues)",
        )
        self.verification_cache_events = r.counter(
            M_VERIFICATION_CACHE,
            "Verification Manager AVR-cache lookups by result "
            "(hit = IAS round trip skipped for byte-identical evidence)",
            labelnames=("result",),
        )
        self.ec_ops = r.gauge(
            M_EC_OPS,
            "Cumulative EC fast-path engine counters (synced from "
            "repro.crypto.ec on scrape): ladder invocations by kind, "
            "window-table builds, validation-cache hits/misses",
            labelnames=("op",),
        )
        self.kms_requests = r.counter(
            M_KMS_REQUESTS,
            "Key-manager REST requests by operation and HTTP status",
            labelnames=("op", "status"),
        )
        self.kms_request_seconds = r.histogram(
            M_KMS_REQUEST_SECONDS,
            "Simulated end-to-end time of one key-manager request",
            labelnames=("op",),
        )
        self.kms_secrets = r.gauge(
            M_KMS_SECRETS,
            "Sealed secrets currently resident per KMS shard "
            "(synced on scrape and after mutations)",
            labelnames=("shard",),
        )
        self.ratls_validations = r.counter(
            M_RATLS_VALIDATIONS,
            "RA-TLS quote-bearing certificate validations by result "
            "(accepted / rejected)",
            labelnames=("result",),
        )
        self.ratls_resumption_checks = r.counter(
            M_RATLS_RESUMPTIONS,
            "RA-TLS resumption-gate decisions by result "
            "(allowed / denied — denied forces re-attestation)",
            labelnames=("result",),
        )
        self.fabric_replications = r.counter(
            M_FABRIC_REPLICATIONS,
            "Operations replicated through the trusted-fabric keystore "
            "log, by entry kind",
            labelnames=("kind",),
        )
        self.fabric_fanout_seconds = r.histogram(
            M_FABRIC_FANOUT_SECONDS,
            "Simulated end-to-end revocation fan-out time (replication "
            "to every live replica + push to every homed switch)",
            labelnames=("kind",),
        )
        self.fabric_convergence_seconds = r.histogram(
            M_FABRIC_CONVERGENCE_SECONDS,
            "Simulated time for one fabric convergence pass (probe, "
            "re-sync, re-elect, re-home)",
        )
        self.fabric_rehomes = r.counter(
            M_FABRIC_REHOMES,
            "Switches re-homed onto a surviving controller replica "
            "during convergence",
        )

    # -------------------------------------------------------------- spans

    def span(self, name: str, **attributes):
        """Open a traced span (context manager yielding the span)."""
        return self.tracer.span(name, **attributes)

    @contextmanager
    def time(self, histogram_child) -> Iterator[None]:
        """Observe the simulated duration of the ``with`` body into a
        histogram child (observes on success *and* on exception)."""
        start = self.now()
        try:
            yield
        finally:
            histogram_child.observe(self.now() - start)

    # ------------------------------------------------------------- hooks

    def observe_audit(self, event) -> None:
        """AuditLog observer: one counter increment per recorded event."""
        self.audit_events.labels(kind=event.kind).inc()

    def observe_handshake(self, role: str, resumed: bool,
                          seconds: float) -> None:
        """Record one TLS handshake."""
        self.tls_handshake_seconds.labels(
            role=role, resumed="true" if resumed else "false"
        ).observe(seconds)

    def sync_ec_stats(self, curve=None) -> None:
        """Mirror the EC engine's plain-integer counters into ``ec_ops``.

        The crypto layer counts with bare ``int += 1`` so the hot ladders
        never touch the registry; this pull-style sync (called by the
        ``/metrics`` endpoint before rendering, or manually) copies the
        current snapshot into gauge children.  Passing ``curve`` overrides
        the default P-256 instance (tests use private curves).
        """
        if curve is None:
            from repro.crypto.ec import P256 as curve  # noqa: N813
        for op, value in curve.stats.snapshot().items():
            self.ec_ops.labels(op=op).set(value)

    # ------------------------------------------------------------ reading

    def histogram(self, name: str) -> Histogram:
        """A registered histogram family by name."""
        family = self.registry.get(name)
        if not isinstance(family, Histogram):
            from repro.errors import ObservabilityError

            raise ObservabilityError(f"{name} is a {family.kind}")
        return family

    def reset(self) -> None:
        """Zero metrics and drop spans (registrations survive)."""
        self.registry.reset()
        self.tracer.reset()


# ------------------------------------------------------------- null object


class _NullRegistry:
    """A registry that keeps nothing.  Every metric it hands out is the
    registry itself, which takes any labels and any update."""

    __slots__ = ()

    def counter(self, name: str, help: str = "", labelnames=(),
                buckets=None) -> "_NullRegistry":
        return self

    gauge = histogram = counter

    def labels(self, **labels) -> "_NullRegistry":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    dec = inc

    def set(self, value: float) -> None:
        pass

    observe = set

    def collect(self) -> list:
        return []

    def reset(self) -> None:
        pass


class _NullTracer:
    """A tracer that keeps nothing.  Every span it opens is the tracer
    itself: a context manager that drops attributes and events."""

    __slots__ = ()

    def span(self, name: str, **attributes) -> "_NullTracer":
        return self

    def __enter__(self) -> "_NullTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_attribute(self, key: str, value) -> None:
        pass

    def add_event(self, name: str, timestamp=None, **attributes) -> None:
        pass

    def current_span(self) -> None:
        return None

    def export(self) -> list:
        return []

    def reset(self) -> None:
        pass


#: Telemetry switched off: the real :class:`Telemetry` over a registry and
#: a tracer that keep nothing, on a constant clock.  It holds no state and
#: no lock, so one instance serves every component.  Low layers import it
#: from this module, not from the :mod:`repro.obs` package: the package
#: imports :mod:`repro.net`, so while it initialises a low layer would
#: find it half built.
NULL_TELEMETRY = Telemetry(registry=_NullRegistry(), tracer=_NullTracer())


__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "Span",
    "M_AUDIT_EVENTS",
    "M_HOST_ATTESTATION_SECONDS",
    "M_VNF_ATTESTATION_SECONDS",
    "M_IAS_VERIFICATION_SECONDS",
    "M_IAS_VERDICTS",
    "M_CREDENTIALS_ISSUED",
    "M_PROVISIONING_SECONDS",
    "M_TLS_HANDSHAKE_SECONDS",
    "M_NORTHBOUND_REQUESTS",
    "M_ECALLS",
    "M_OCALLS",
    "M_BOUNDARY_BYTES",
    "M_WORKFLOW_STEP_SECONDS",
    "M_WORKFLOWS",
    "M_ENROLLED_VNFS",
    "M_RETRY_ATTEMPTS",
    "M_RETRY_GIVEUPS",
    "M_VERIFICATION_CACHE",
    "M_EC_OPS",
    "M_RETRY_BACKOFF_SECONDS",
    "M_WORKFLOW_VNF_FAILURES",
    "M_KMS_REQUESTS",
    "M_KMS_REQUEST_SECONDS",
    "M_KMS_SECRETS",
    "M_RATLS_VALIDATIONS",
    "M_RATLS_RESUMPTIONS",
    "M_FABRIC_REPLICATIONS",
    "M_FABRIC_FANOUT_SECONDS",
    "M_FABRIC_CONVERGENCE_SECONDS",
    "M_FABRIC_REHOMES",
]
