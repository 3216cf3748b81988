"""Audit log and deployment policy."""

from repro.core.events import AuditLog
from repro.core.policy import DeploymentPolicy
from repro.net.clock import VirtualClock


def test_audit_records_and_filters():
    clock = VirtualClock(1.0)
    log = AuditLog(clock)
    log.record("host-attested", "host-1")
    clock.advance(1.0)
    log.record("vnf-attested", "vnf-1", "details")
    clock.advance(1.0)
    log.record("host-attested", "host-2")
    assert len(log) == 3
    assert [e.subject for e in log.events("host-attested")] == ["host-1",
                                                                "host-2"]
    assert log.events(subject="vnf-1")[0].details == "details"
    assert log.events("host-attested", subject="host-2")[0].timestamp == 3.0
    assert log.counts() == {"host-attested": 2, "vnf-attested": 1}


def test_policy_defaults_match_reference_enclaves():
    from repro.core.attestation_enclave import reference_measurement as att
    from repro.core.credential_enclave import reference_measurement as cred

    policy = DeploymentPolicy()
    assert policy.expected_attestation_mrenclave == att()
    assert policy.expected_credential_mrenclave == cred()
    assert policy.expected_attestation_mrenclave != (
        policy.expected_credential_mrenclave
    )


def test_policy_svn_floor():
    policy = DeploymentPolicy(min_isv_svn=3)
    assert policy.check_enclave_svn(3)
    assert policy.check_enclave_svn(4)
    assert not policy.check_enclave_svn(2)
