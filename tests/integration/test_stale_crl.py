"""A CRL past its next update is refused until the VM publishes a new one.

The Verification Manager publishes its CRL when a TLS config subscribes,
on each revocation and on an issuance that finds the installed CRL past
its next update; no timer re-publishes it.  So with no revocation and no
enrollment after ``next_update``, the controller refuses every full
handshake on the stale CRL (fail closed) until the next issuance
refreshes it.
"""

import pytest

from repro.core import Deployment
from repro.errors import TlsAlert
from repro.pki.ca import CRL_UPDATE_INTERVAL
from repro.tls.alerts import BAD_CERTIFICATE


def test_full_handshake_refused_on_stale_crl_until_refresh():
    deployment = Deployment(seed=b"stale-crl", vnf_count=2)
    deployment.enroll("vnf-1")
    # The controller's CRL was issued at or before now, so one update
    # interval later it is past its next update.
    deployment.clock.advance(CRL_UPDATE_INTERVAL)

    client = deployment.enclave_client("vnf-1")
    client.close()
    with pytest.raises(TlsAlert) as refusal:
        client.summary()
    assert refusal.value.description == BAD_CERTIFICATE
    assert "stale CRL" in str(refusal.value)

    # Issuing vnf-2's certificate re-publishes a current CRL: vnf-2's
    # step 6 and vnf-1's next full handshake succeed on it.
    assert deployment.enroll("vnf-2").error is None
    assert client.summary()["controller"] == "floodlight"
