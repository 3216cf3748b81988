"""RA-TLS enrollment end to end: the attested channel replaces steps 3-6.

Integration tests over a full :class:`~repro.core.Deployment`: local
credential preparation, in-handshake attestation at the ``ratls-https``
northbound endpoint, resumed reconnects, IAS verdict reuse when a
restored enclave handshakes in full, and resumption-safe revocation
through the Verification Manager.
"""

import pytest

from repro.core import Deployment
from repro.core.ratls_enrollment import (
    STATE_ENROLLED,
    RatlsEnrollmentSession,
)
from repro.core.workflow import CONTROLLER_HOST
from repro.errors import RevocationError, TlsAlert
from repro.sdn.northbound import MODE_RATLS


def _reconnect(deployment, vnf_name):
    enclave = deployment.credential_enclaves[vnf_name].enclave
    enclave.ecall("disconnect")
    enclave.ecall("request", "GET",
                  "/wm/core/controller/summary/json", b"")


class TestEnrollment:
    def test_enrolls_without_vm_round_trips(self, deployment):
        verifier = deployment.build_ratls()
        machinery_before = (deployment.network.messages_sent
                            - deployment.network.messages_to(
                                CONTROLLER_HOST))
        session = deployment.enroll_ratls("vnf-1")
        assert session.state == STATE_ENROLLED
        assert [t.step for t in session.timings] == [
            "ratls-credential-preparation", "ratls-attested-connect",
        ]
        # One IAS verification, performed by the *verifier* during the
        # handshake; no agent/VM/CA provisioning traffic at all beyond it.
        assert deployment.ias.quotes_verified == 1
        assert verifier.validations == verifier.accepted == 1
        machinery_after = (deployment.network.messages_sent
                          - deployment.network.messages_to(CONTROLLER_HOST))
        assert machinery_after - machinery_before <= 8  # IAS only

    def test_build_ratls_is_idempotent(self, deployment):
        assert deployment.build_ratls() is deployment.build_ratls()
        assert MODE_RATLS in deployment.endpoints

    def test_verifier_uses_pooled_ias_connection(self, deployment):
        deployment.build_ratls()
        for name in deployment.vnf_names:
            deployment.enroll_ratls(name)
        assert deployment.ratls_ias_pool.connects == 1

    def test_prepare_is_network_silent(self, deployment):
        verifier = deployment.build_ratls()
        anchors = tuple(
            a.to_bytes()
            for a in deployment.vm.controller_truststore().anchors()
        )
        session = RatlsEnrollmentSession(
            enclave=deployment.credential_enclaves["vnf-1"],
            verifier=verifier,
            basename=deployment.policy.basename,
            anchors=anchors,
            controller_address=str(
                deployment.controller_address(MODE_RATLS)),
            clock=deployment.clock,
        )
        before = deployment.network.messages_sent
        session.prepare()
        assert deployment.network.messages_sent == before
        assert verifier.knows_subject("vnf-1")

    def test_standard_enrollment_still_works_alongside(
            self, two_vnf_deployment):
        dep = two_vnf_deployment
        dep.enroll_ratls("vnf-1")
        standard = dep.enroll("vnf-2")
        assert standard.state == "enrolled"
        assert dep.vm.issued_certificate("vnf-2") is not None


class TestReconnects:
    def test_reconnects_are_ias_free(self, deployment):
        verifier = deployment.build_ratls()
        deployment.enroll_ratls("vnf-1")
        for _ in range(5):
            _reconnect(deployment, "vnf-1")
        assert deployment.ias.quotes_verified == 1
        assert verifier.validations == 1       # resumed, not re-validated
        assert verifier.resumption_checks == 5
        assert verifier.resumptions_denied == 0

    def test_restored_enclave_rehandshakes_from_the_memo(self, deployment):
        telemetry = deployment.enable_telemetry(serve=False)
        verifier = deployment.build_ratls()
        deployment.enroll_ratls("vnf-1")
        verified = deployment.ias.quotes_verified
        enclave = deployment.credential_enclaves["vnf-1"]
        sealed = enclave.seal_credentials()
        enclave.wipe()
        enclave.restore_credentials(sealed)
        deployment.enclave_client("vnf-1").summary()
        # The restored enclave holds no TLS session, so it handshakes in
        # full; its certificate's quote is unchanged, so the memo answers.
        assert verifier.validations == 2
        assert deployment.ias.quotes_verified == verified
        events = telemetry.verification_cache_events
        assert events.labels(result="hit").value == 1


class TestRevocation:
    def test_revoke_vnf_blocks_reconnect(self, deployment):
        verifier = deployment.build_ratls()
        deployment.enroll_ratls("vnf-1")
        deployment.vm.revoke_vnf("vnf-1", reason="key-compromise")
        with pytest.raises(TlsAlert):
            _reconnect(deployment, "vnf-1")
        assert verifier.rejected == 1

    def test_revoke_vnf_without_any_credential_still_errors(
            self, deployment):
        deployment.build_ratls()
        with pytest.raises(RevocationError):
            deployment.vm.revoke_vnf("vnf-unknown")

    def test_distrust_host_revokes_ratls_identities(self, deployment):
        deployment.build_ratls()
        deployment.enroll_ratls("vnf-1")
        host = deployment.vnf_host["vnf-1"]
        revoked = deployment.vm.distrust_host(host.name)
        assert "vnf-1" in revoked
        with pytest.raises(TlsAlert):
            _reconnect(deployment, "vnf-1")

    def test_enrollment_memoizes_verdict_under_subject(self, deployment):
        deployment.build_ratls()
        deployment.enroll_ratls("vnf-1")
        cache = deployment.vm.verification_cache
        assert cache.invalidate_subject("vnf-1") == 1

    def test_revocation_also_purges_verification_cache(self, deployment):
        deployment.build_ratls()
        deployment.enroll_ratls("vnf-1")
        deployment.vm.revoke_vnf("vnf-1")
        # Nothing left to purge: revocation already dropped the verdict.
        assert deployment.vm.verification_cache.invalidate_subject(
            "vnf-1") == 0


class TestTelemetry:
    def test_ratls_metrics_exported(self):
        deployment = Deployment(seed=b"ratls-telemetry", vnf_count=1)
        deployment.enable_telemetry()
        deployment.build_ratls()
        deployment.enroll_ratls("vnf-1")
        _reconnect(deployment, "vnf-1")
        scrape = deployment.scrape_metrics()
        assert 'vnf_sgx_ratls_validations_total{result="accepted"} 1' in scrape
        assert ('vnf_sgx_ratls_resumption_checks_total{result="allowed"} 1'
                in scrape)
        deployment.disable_telemetry()
