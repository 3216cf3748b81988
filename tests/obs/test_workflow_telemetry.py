"""End-to-end telemetry: the Figure 1 workflow observed through obs.

The acceptance bar for the subsystem:

* a telemetry-enabled ``run_workflow()`` yields a non-empty, deterministic
  trace covering steps 1-6,
* a ``/metrics`` scrape over the simulated network carries the
  attestation / IAS / provisioning / TLS histograms with counts matching
  the number of enrolled VNFs,
* telemetry disabled leaves behaviour and simulated timings unchanged.
"""

import pytest

from repro.core import Deployment
from repro.errors import VnfSgxError
from repro.obs import parse_prometheus


@pytest.fixture(scope="module")
def observed():
    """One telemetry-enabled deployment with a completed workflow."""
    deployment = Deployment(seed=b"obs-e2e", vnf_count=2)
    deployment.enable_telemetry()
    trace = deployment.run_workflow()
    yield deployment, trace
    deployment.disable_telemetry()


# -------------------------------------------------------------------- traces


def test_trace_covers_figure1_steps(observed):
    deployment, _ = observed
    roots = deployment.telemetry.tracer.roots()
    assert [r.name for r in roots] == ["figure1-workflow"]
    workflow = roots[0]
    assert workflow.attributes == {"vnfs": 2}
    enrollments = [c for c in workflow.children if c.name == "enrollment"]
    assert [e.attributes["vnf"] for e in enrollments] == ["vnf-1", "vnf-2"]
    for enrollment in enrollments:
        # Steps 1-2, 3-5 and 6 as emitted by EnrollmentSession._timed.
        step_names = [c.name for c in enrollment.children]
        assert step_names == [
            "host-attestation (steps 1-2)",
            "vnf-attestation+provisioning (steps 3-5)",
            "controller-session (step 6)",
        ]
        # The deeper protocol spans hang off the right steps.
        assert enrollment.find("ias-verification") is not None
        assert enrollment.find("credential-provisioning") is not None
        assert enrollment.find("enclave-attestation") is not None
        assert enrollment.find("credential-issuance") is not None
        assert enrollment.find("tls-handshake") is not None
    assert deployment.telemetry.tracer.open_depth() == 0


def test_trace_spans_are_clock_timed_and_nested(observed):
    deployment, trace = observed
    workflow = deployment.telemetry.tracer.roots()[0]
    assert workflow.duration == pytest.approx(trace.simulated_seconds)
    for enrollment in workflow.children:
        for child in enrollment.children:
            assert enrollment.start <= child.start <= child.end \
                <= enrollment.end


def test_trace_is_deterministic_across_runs():
    def run() -> str:
        deployment = Deployment(seed=b"obs-determinism", vnf_count=1)
        deployment.enable_telemetry(serve=False)
        deployment.run_workflow()
        exported = deployment.telemetry.tracer.export_json()
        deployment.disable_telemetry()
        return exported

    assert run() == run()


def test_traces_scrape_matches_export(observed):
    deployment, _ = observed
    scraped = deployment.scrape_traces()
    assert scraped == deployment.telemetry.tracer.export()


# ------------------------------------------------------------------- metrics


def test_metrics_scrape_counts_match_enrolled_vnfs(observed):
    deployment, _ = observed
    parsed = parse_prometheus(deployment.scrape_metrics())
    vnfs = len(deployment.vnf_names)

    assert parsed["vnf_sgx_host_attestation_seconds_count"][
        (("result", "trusted"),)
    ] == vnfs
    assert parsed["vnf_sgx_vnf_attestation_seconds_count"][
        (("variant", "delivery"),)
    ] == vnfs
    assert parsed["vnf_sgx_provisioning_seconds_count"][
        (("variant", "delivery"),)
    ] == vnfs
    assert parsed["vnf_sgx_credentials_issued_total"][
        (("variant", "delivery"),)
    ] == vnfs
    # One IAS verification per host attestation + one per enclave quote.
    assert parsed["vnf_sgx_ias_verification_seconds_count"][()] == 2 * vnfs
    assert parsed["vnf_sgx_enrolled_vnfs"][()] == vnfs
    assert parsed["vnf_sgx_workflows_total"][()] == 1
    for step in ("host-attestation (steps 1-2)",
                 "vnf-attestation+provisioning (steps 3-5)",
                 "controller-session (step 6)"):
        assert parsed["vnf_sgx_workflow_step_seconds_count"][
            (("step", step),)
        ] == vnfs
    # TLS: every handshake lands in the histogram, full and resumed split.
    full = parsed["vnf_sgx_tls_handshake_seconds_count"][
        (("resumed", "false"), ("role", "client"))
    ]
    assert full >= vnfs
    # Enclave transition counters are labelled by platform (= host name).
    assert parsed["vnf_sgx_enclave_ecalls_total"][
        (("platform", deployment.host.name),)
    ] > 0


def test_audit_counter_mirrors_audit_log(observed):
    deployment, _ = observed
    parsed = parse_prometheus(deployment.scrape_metrics())
    for kind, count in deployment.vm.audit.counts().items():
        assert parsed["vnf_sgx_audit_events_total"][
            (("kind", kind),)
        ] == count


def test_northbound_requests_counted(observed):
    deployment, _ = observed
    parsed = parse_prometheus(deployment.scrape_metrics())
    assert parsed["vnf_sgx_northbound_requests_total"][
        (("method", "GET"), ("mode", "trusted-https"), ("status", "200"))
    ] >= len(deployment.vnf_names)


def test_step_histogram_sums_match_workflow_trace(observed):
    deployment, trace = observed
    telemetry = deployment.telemetry
    hist = telemetry.workflow_step_seconds
    for step, total in trace.step_totals().items():
        child = hist.labels(step=step)
        assert child.sum == pytest.approx(total)


# ----------------------------------------------------------------- fleet runs


def test_fleet_run_reports_like_the_serial_loop():
    """A fleet run emits the serial loop's workflow telemetry: one run,
    its VNF failures, the host step once per attested host, and one
    ``enrollment`` span per VNF (roots of their own on worker threads)."""
    from repro.net.faults import FaultPlan
    from repro.net.retry import RetryPolicy

    deployment = Deployment(
        seed=b"obs-fleet", vnf_count=4, host_count=2,
        retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.01,
                                 jitter=0.0),
    )
    down = deployment.hosts[1].name
    deployment.install_faults(
        FaultPlan().refuse_connections(deployment.agents[down].address))
    deployment.enable_telemetry()
    try:
        trace = deployment.enroll_fleet(workers=4)
        parsed = parse_prometheus(deployment.scrape_metrics())
        enrollments = [span for span in
                       deployment.telemetry.tracer.export_flat()
                       if span["name"] == "enrollment"]
    finally:
        deployment.disable_telemetry()

    on_down = {name for name, host in deployment.vnf_host.items()
               if host.name == down}
    assert set(trace.failed) == on_down and len(on_down) == 2
    assert parsed["vnf_sgx_workflows_total"][()] == 1
    assert parsed["vnf_sgx_workflow_vnf_failures_total"][()] == 2
    assert parsed["vnf_sgx_workflow_step_seconds_count"][
        (("step", "host-attestation (steps 1-2)"),)
    ] == 1
    assert sorted(span["attributes"]["vnf"] for span in enrollments) \
        == deployment.vnf_names


# ------------------------------------------------- disabled-telemetry parity


def test_disabled_telemetry_changes_nothing():
    plain = Deployment(seed=b"obs-parity", vnf_count=2)
    trace_plain = plain.run_workflow()

    observed = Deployment(seed=b"obs-parity", vnf_count=2)
    observed.enable_telemetry()
    trace_observed = observed.run_workflow()
    observed.disable_telemetry()

    assert trace_observed.simulated_seconds == trace_plain.simulated_seconds
    assert trace_observed.clock_charges == trace_plain.clock_charges
    for vnf_name, timings in trace_plain.per_vnf.items():
        got = trace_observed.per_vnf[vnf_name]
        assert [t.step for t in got] == [t.step for t in timings]
        assert [t.simulated_seconds for t in got] == \
            [t.simulated_seconds for t in timings]


def test_scrape_requires_serving_endpoint():
    deployment = Deployment(seed=b"obs-noserve", vnf_count=1)
    deployment.enable_telemetry(serve=False)
    try:
        with pytest.raises(VnfSgxError):
            deployment.scrape_metrics()
        with pytest.raises(VnfSgxError):
            deployment.scrape_traces()
    finally:
        deployment.disable_telemetry()


def test_enable_telemetry_is_idempotent():
    deployment = Deployment(seed=b"obs-idem", vnf_count=1)
    first = deployment.enable_telemetry(serve=False)
    second = deployment.enable_telemetry(serve=False)
    try:
        assert first is second
    finally:
        deployment.disable_telemetry()
