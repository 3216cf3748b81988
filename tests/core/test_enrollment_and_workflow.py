"""The enrolment state machine and the executable Figure 1 workflow."""

import pytest

from repro.core.enrollment import (
    STATE_ENROLLED,
    STATE_FAILED,
    STATE_HOST_ATTESTED,
    STATE_INIT,
    EnrollmentSession,
)
from repro.errors import AppraisalFailed, EnrollmentError


def make_session(deployment, vnf_name="vnf-1"):
    return EnrollmentSession(
        vm=deployment.vm,
        agent=deployment.agent_client,
        host_name=deployment.host.name,
        vnf_name=vnf_name,
        controller_address=str(deployment.controller_address()),
    )


def test_state_progression(deployment):
    session = make_session(deployment)
    assert session.state == STATE_INIT
    session.attest_host()
    assert session.state == STATE_HOST_ATTESTED
    session.provision()
    session.connect(deployment.enclave_client("vnf-1"))
    assert session.state == STATE_ENROLLED
    assert session.certificate_serial is not None


def test_steps_must_run_in_order(deployment):
    session = make_session(deployment)
    with pytest.raises(EnrollmentError):
        session.provision()
    with pytest.raises(EnrollmentError):
        session.connect(deployment.enclave_client("vnf-1"))


def test_failure_marks_session(deployment):
    deployment.host.tamper_file("/usr/bin/dockerd", b"rootkit")
    session = make_session(deployment)
    with pytest.raises(AppraisalFailed):
        session.attest_host()
    assert session.state == STATE_FAILED


def test_timings_recorded_per_step(deployment):
    session = make_session(deployment)
    session.attest_host()
    session.provision()
    session.connect(deployment.enclave_client("vnf-1"))
    assert len(session.timings) == 3
    steps = [timing.step for timing in session.timings]
    assert "host-attestation (steps 1-2)" in steps[0]
    assert all(t.simulated_seconds > 0 for t in session.timings)
    assert session.total_simulated_seconds == pytest.approx(
        sum(t.simulated_seconds for t in session.timings)
    )


def test_run_workflow_all_vnfs(two_vnf_deployment):
    trace = two_vnf_deployment.run_workflow()
    assert set(trace.per_vnf) == {"vnf-1", "vnf-2"}
    assert trace.simulated_seconds > 0
    assert "network" in trace.clock_charges
    assert "enclave-transitions" in trace.clock_charges
    totals = trace.step_totals()
    assert len(totals) == 3


def test_workflow_is_deterministic():
    from repro.core import Deployment

    a = Deployment(seed=b"det", vnf_count=1).run_workflow()
    b = Deployment(seed=b"det", vnf_count=1).run_workflow()
    assert a.simulated_seconds == pytest.approx(b.simulated_seconds)
    for step_a, step_b in zip(a.per_vnf["vnf-1"], b.per_vnf["vnf-1"]):
        assert step_a.simulated_seconds == pytest.approx(
            step_b.simulated_seconds
        )


def test_keystore_mode_populates_keystore():
    from repro.core import Deployment
    from repro.core.workflow import VALIDATION_KEYSTORE

    deployment = Deployment(seed=b"ks", vnf_count=2,
                            client_validation=VALIDATION_KEYSTORE)
    deployment.run_workflow()
    assert len(deployment.keystore) == 2
    assert deployment.enclave_client("vnf-1").summary()


def test_ca_mode_keystore_stays_empty(two_vnf_deployment):
    two_vnf_deployment.run_workflow()
    assert len(two_vnf_deployment.keystore) == 0


def test_invalid_validation_model_rejected():
    from repro.core import Deployment
    from repro.errors import VnfSgxError

    with pytest.raises(VnfSgxError):
        Deployment(client_validation="blockchain")


def test_run_workflow_equals_sequential_enroll():
    """run_workflow() is enroll() in a loop — not a diverging copy of its
    body.  Two identically seeded deployments, one driven by
    run_workflow() and one by sequential enroll() calls, must produce
    identical per-VNF timings."""
    from repro.core import Deployment

    via_workflow = Deployment(seed=b"dedup", vnf_count=2)
    trace = via_workflow.run_workflow()

    via_enroll = Deployment(seed=b"dedup", vnf_count=2)
    sessions = {name: via_enroll.enroll(name)
                for name in via_enroll.vnf_names}

    assert set(trace.per_vnf) == set(sessions)
    for vnf_name, session in sessions.items():
        workflow_steps = trace.per_vnf[vnf_name]
        assert [t.step for t in workflow_steps] == \
            [t.step for t in session.timings]
        for from_workflow, from_enroll in zip(workflow_steps,
                                              session.timings):
            assert from_workflow.simulated_seconds == pytest.approx(
                from_enroll.simulated_seconds
            )


def test_partial_failure_recorded_not_raised():
    """A VNF that cannot enrol lands in WorkflowTrace.failed; the rest of
    the fleet still enrolls."""
    from repro.core import Deployment

    deployment = Deployment(seed=b"partial", vnf_count=3)
    # vnf-2's enclave disappears (e.g. its container was killed).
    del deployment.agent._credential_enclaves["vnf-2"]
    trace = deployment.run_workflow()
    assert sorted(trace.per_vnf) == ["vnf-1", "vnf-3"]
    assert list(trace.failed) == ["vnf-2"]
    assert "vnf-2" in trace.failed["vnf-2"]
    assert not trace.fully_succeeded
