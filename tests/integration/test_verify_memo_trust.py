"""A memo hit never admits a revoked or expired identity.

The CA anchor's self-signature, the controller certificate and the CRL
are re-verified on every handshake, so after one enrollment their
signatures are memo hits.  Revocation and expiry are decided by checks
that run around the verify on every validation, so a refused VNF stays
refused while those hits happen, and a fresh VNF still enrolls.
"""

import pytest

from repro.core import Deployment
from repro.crypto import keys
from repro.crypto.ec import P256
from repro.errors import TlsAlert
from repro.tls.alerts import BAD_CERTIFICATE


@pytest.fixture
def verifies(monkeypatch):
    """Records ``(message, memo_hit)`` for every ``ecdsa_verify`` call."""
    calls = []
    verify = keys.ecdsa_verify

    def recorded(point, message, signature, curve=P256):
        hits = curve.stats.verify_memo_hits
        try:
            return verify(point, message, signature, curve)
        finally:
            calls.append((message, curve.stats.verify_memo_hits > hits))

    monkeypatch.setattr(keys, "ecdsa_verify", recorded)
    return calls


def _refused(deployment, vnf_name) -> TlsAlert:
    """Reconnect ``vnf_name`` with a full handshake; return the refusal."""
    client = deployment.enclave_client(vnf_name)
    client.close()
    with pytest.raises(TlsAlert) as refusal:
        client.summary()
    assert refusal.value.description == BAD_CERTIFICATE
    return refusal.value


def test_memo_hits_never_admit_revoked_or_expired_vnfs(verifies):
    deployment = Deployment(seed=b"verify-memo-trust", vnf_count=3)
    deployment.enroll("vnf-1")
    deployment.enroll("vnf-2")
    anchor = deployment.vm.ca.certificate.tbs_bytes()
    anchor_hit = [hit for message, hit in verifies if message == anchor]
    assert anchor_hit[-1]  # the anchor's self-signature is memoised

    verifies.clear()
    deployment.vm.revoke_vnf("vnf-1")
    assert "revoked" in str(_refused(deployment, "vnf-1"))
    assert (anchor, True) in verifies

    verifies.clear()
    expiry = deployment.vm.issued_certificate("vnf-2").not_after
    deployment.clock.advance(expiry + 1 - deployment.clock.now_seconds())
    assert f"checked at {expiry + 1}" in str(_refused(deployment, "vnf-2"))
    assert (anchor, True) in verifies

    session = deployment.enroll("vnf-3")
    assert session.error is None
    assert deployment.enclave_client("vnf-3").summary()["controller"] \
        == "floodlight"
