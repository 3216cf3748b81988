"""The WorkflowTrace object and Deployment accessors."""

import pytest

from repro.core import Deployment
from repro.core.workflow import WorkflowTrace
from repro.sdn.northbound import MODE_HTTP, MODE_HTTPS, MODE_TRUSTED


def test_trace_step_totals_sum(two_vnf_deployment):
    trace = two_vnf_deployment.run_workflow()
    per_step = trace.step_totals()
    per_vnf_total = sum(
        timing.simulated_seconds
        for timings in trace.per_vnf.values()
        for timing in timings
    )
    assert sum(per_step.values()) == pytest.approx(per_vnf_total)


def test_trace_wall_time_positive(two_vnf_deployment):
    trace = two_vnf_deployment.run_workflow()
    assert trace.wall_seconds > 0


def test_empty_trace():
    trace = WorkflowTrace()
    assert trace.step_totals() == {}


def test_controller_address_per_mode(deployment):
    assert deployment.controller_address(MODE_HTTP).port == 8080
    assert deployment.controller_address(MODE_HTTPS).port == 8443
    assert deployment.controller_address(MODE_TRUSTED).port == 9443


def test_deterministic_construction():
    a = Deployment(seed=b"same-seed", vnf_count=1)
    b = Deployment(seed=b"same-seed", vnf_count=1)
    assert (a.vm.ca.certificate.public_key_bytes
            == b.vm.ca.certificate.public_key_bytes)
    assert (a.credential_enclaves["vnf-1"].enclave.mrenclave
            == b.credential_enclaves["vnf-1"].enclave.mrenclave)


def test_different_seeds_different_keys():
    a = Deployment(seed=b"seed-a", vnf_count=1)
    b = Deployment(seed=b"seed-b", vnf_count=1)
    assert (a.vm.ca.certificate.public_key_bytes
            != b.vm.ca.certificate.public_key_bytes)
