"""End-to-end resilience of the enrollment pipeline under injected faults.

These are the tentpole's acceptance tests:

(a) enrollment completes under transient IAS 503 bursts and dropped
    host-agent connections, with the re-attempts visible in ``/metrics``;
(b) a fleet workflow with one permanently failed host returns a partial
    trace (survivors enrolled, failure recorded) instead of raising;
(c) identical seeds plus an identical fault plan give byte-identical
    workflow traces.
"""

import json

import pytest

from repro.core.workflow import IAS_ADDRESS, Deployment
from repro.errors import ConnectionRefused, VnfSgxError
from repro.net.faults import FaultPlan
from repro.net.retry import RetryPolicy

POLICY = RetryPolicy(max_attempts=4, base_backoff=0.05, multiplier=2.0,
                     max_backoff=1.0, jitter=0.1)


def canonical(trace) -> bytes:
    """A trace's deterministic wire form (wall-clock fields excluded)."""
    return json.dumps({
        "per_vnf": {
            vnf: [[t.step, t.simulated_seconds] for t in timings]
            for vnf, timings in trace.per_vnf.items()
        },
        "failed": dict(trace.failed),
        "simulated_seconds": trace.simulated_seconds,
        "clock_charges": dict(trace.clock_charges),
    }, sort_keys=True).encode("utf-8")


def test_enrollment_survives_transient_ias_and_agent_faults():
    """(a): 503 bursts at IAS and a mid-stream agent drop are absorbed by
    retry + backoff; the workflow completes and /metrics shows the
    re-attempts."""
    deployment = Deployment(seed=b"resilience", vnf_count=2,
                            retry_policy=POLICY)
    deployment.enable_telemetry()
    plan = (FaultPlan(seed=b"resilience-plan")
            .http_error(IAS_ADDRESS, 503, count=2)
            .refuse_connections(deployment.agent.address, count=1)
            .drop_after_sends(deployment.agent.address, sends=3,
                              connections=1))
    deployment.install_faults(plan)

    trace = deployment.run_workflow()

    assert trace.fully_succeeded
    assert sorted(trace.per_vnf) == ["vnf-1", "vnf-2"]
    assert sum(plan.injected.values()) >= 4
    # Backoff sleeps were charged to the virtual clock.
    assert trace.clock_charges.get("retry-backoff", 0.0) > 0.0
    metrics = deployment.scrape_metrics()
    assert 'vnf_sgx_retry_attempts_total{operation="ias-verify"}' in metrics
    assert 'vnf_sgx_retry_attempts_total{operation="host-agent"}' in metrics
    assert "vnf_sgx_retry_giveups_total" in metrics
    assert deployment.telemetry.workflow_vnf_failures.value == 0


def test_csr_enrollment_survives_transient_ias_and_agent_faults():
    """(a) for the in-enclave key custody: the same faults are absorbed by
    the same step retries."""
    deployment = Deployment(seed=b"resilience", vnf_count=2,
                            retry_policy=POLICY)
    plan = (FaultPlan(seed=b"resilience-plan")
            .http_error(IAS_ADDRESS, 503, count=2)
            .refuse_connections(deployment.agent.address, count=1)
            .drop_after_sends(deployment.agent.address, sends=3,
                              connections=1))
    deployment.install_faults(plan)

    for vnf_name in deployment.vnf_names:
        assert deployment.enroll(vnf_name, csr=True).succeeded
    assert sum(plan.injected.values()) >= 4
    provisioned = deployment.vm.audit.events("credential-provisioned")
    assert [event.details[-5:] for event in provisioned] == ["(csr)"] * 2
    assert deployment.clock.charges().get("retry-backoff", 0.0) > 0.0


def test_fleet_workflow_records_partial_failure():
    """(b): one permanently unreachable host fails its VNFs' enrollment,
    the rest of the fleet enrolls, and nothing raises."""
    deployment = Deployment(seed=b"fleet", vnf_count=4, host_count=2,
                            retry_policy=RetryPolicy(max_attempts=2,
                                                     base_backoff=0.01,
                                                     jitter=0.0))
    deployment.enable_telemetry()
    dead_host = deployment.hosts[1]
    plan = FaultPlan().refuse_connections(
        deployment.agents[dead_host.name].address
    )
    deployment.install_faults(plan)

    trace = deployment.run_workflow()

    # Round-robin placement: vnf-1/vnf-3 on host 1, vnf-2/vnf-4 on host 2.
    assert sorted(trace.per_vnf) == ["vnf-1", "vnf-3"]
    assert sorted(trace.failed) == ["vnf-2", "vnf-4"]
    for message in trace.failed.values():
        assert "ConnectionRefused" in message
        assert "injected fault" in message
    assert not trace.fully_succeeded
    assert deployment.telemetry.workflow_vnf_failures.value == 2
    # Survivors hold working credentials.
    assert deployment.enclave_client("vnf-1").summary()
    assert deployment.enclave_client("vnf-3").summary()
    # The failed VNFs never enrolled.
    with pytest.raises(VnfSgxError):
        deployment.vm.issued_certificate("vnf-2")


def test_identical_seed_and_plan_give_identical_traces():
    """(c): determinism end to end — equal seeds + equal fault plans give
    byte-identical workflow traces, including retry backoff charges."""

    def run() -> bytes:
        deployment = Deployment(seed=b"determinism", vnf_count=3,
                                host_count=2, retry_policy=POLICY)
        plan = (FaultPlan(seed=b"determinism-plan")
                .http_error(IAS_ADDRESS, 503, count=1)
                .delay_connect(deployment.agent.address, 0.2, count=2)
                .drop_after_sends(deployment.agent.address, sends=5,
                                  connections=1))
        deployment.install_faults(plan)
        return canonical(deployment.run_workflow())

    first, second = run(), run()
    assert first == second


def test_different_plan_seed_changes_the_trace():
    """Counter-check for (c): perturbing only the fault plan's schedule
    perturbs the trace, so the equality above is meaningful."""

    def run(drop_probability_seed: bytes) -> bytes:
        deployment = Deployment(seed=b"determinism", vnf_count=2,
                                retry_policy=POLICY)
        plan = FaultPlan(seed=drop_probability_seed).drop_send_probability(
            deployment.agent.address, 0.2, count=40,
        )
        deployment.install_faults(plan)
        return canonical(deployment.run_workflow())

    assert run(b"plan-A") != run(b"plan-B")


def test_zero_tolerance_without_policy_is_preserved():
    """Without a retry policy the pre-retry contract holds: the first
    injected refusal propagates out of run_workflow... recorded as a
    per-VNF failure, and a direct enroll() raises."""
    deployment = Deployment(seed=b"no-policy", vnf_count=1)
    deployment.install_faults(
        FaultPlan().refuse_connections(deployment.agent.address)
    )
    with pytest.raises(ConnectionRefused):
        deployment.enroll("vnf-1")
