"""RA-TLS enrollment: attestation rides the first controller handshake.

The classic :class:`~repro.core.enrollment.EnrollmentSession` runs the
paper's Figure 1 out-of-band: host attestation (steps 1-2), enclave
attestation + credential provisioning through the Verification Manager
(steps 3-5), and only then the controller connection (step 6) — every
step a separate protocol round trip over the simulated network.

The RA-TLS alternative collapses steps 3-6 into the TLS handshake
itself: the enclave generates its key, quotes the key binding, and
self-signs a quote-bearing certificate *locally* (no VM round trips,
no CA issuance); the controller's :class:`~repro.tls.ratls.RatlsVerifier`
then attests the quote during the handshake.  Reconnects resume the
TLS session without re-validating, and a full re-handshake with the
same certificate (after a restore from the sealed bundle) reuses the
memoised IAS verdict.  Experiment E14 measures both effects: O(1) IAS
calls across reconnects and the multi-× cut in enrollment round trips
at fleet scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.credential_enclave import CredentialEnclave
from repro.core.enrollment import (
    STATE_ENROLLED,
    STATE_INIT,
    StepTimer,
    StepTiming,
)
from repro.errors import EnrollmentError
from repro.net.clock import VirtualClock

STATE_PREPARED = "ratls-prepared"

#: Default validity of a self-signed RA-TLS certificate, in simulated
#: seconds.  Shorter-lived than CA credentials is fine: renewal is a
#: purely local re-sign, not a provisioning protocol run.
DEFAULT_VALIDITY_SECONDS = 24 * 3600


@dataclass
class RatlsEnrollmentSession(StepTimer):
    """Drives one VNF through the RA-TLS attested-channel path.

    Steps are timed like :class:`~repro.core.enrollment.EnrollmentSession`'s
    but never retried: the attestation rides the handshake itself.

    Args:
        enclave: the VNF's credential-enclave handle (host side).
        verifier: the controller-side RA-TLS verifier (from
            ``vm.ratls_verifier()``) — used only to pre-register the
            subject so revocation covers identities that have not
            reconnected yet.
        basename: EPID basename for the quote (deployment policy's).
        anchors: encoded server anchors for validating the controller.
        controller_address: the RA-TLS northbound address.
        clock: the deployment's clock; steps are timed and traced on it.
    """

    enclave: CredentialEnclave
    verifier: object
    basename: bytes
    anchors: tuple
    controller_address: str
    clock: VirtualClock
    validity_seconds: int = DEFAULT_VALIDITY_SECONDS
    state: str = STATE_INIT
    timings: List[StepTiming] = field(default_factory=list)

    @property
    def vnf_name(self) -> str:
        """The enrolling VNF (its steps' spans carry it)."""
        return self.enclave.vnf_name

    # ----------------------------------------------------------- the steps

    def prepare(self) -> str:
        """Local credential preparation: quote the in-enclave key and
        self-sign the quote-bearing certificate.  No network traffic —
        the quoting enclave and the self-signature are host-local."""
        if self.state != STATE_INIT:
            raise EnrollmentError(f"prepare in state {self.state}")

        def build_credential():
            quote = self.enclave.ratls_begin(self.basename)
            subject = self.enclave.ratls_install(
                quote, self.anchors, self.controller_address,
                self.validity_seconds,
            )
            self.verifier.register_subject(
                subject, (self.enclave.host.name,)
            )
            return subject

        subject = self._timed("ratls-credential-preparation",
                              build_credential)
        self.state = STATE_PREPARED
        return subject

    def connect(self, client) -> dict:
        """The attested connect: the handshake itself carries the quote,
        so this one exchange is attestation + channel setup + first
        authenticated controller call."""
        if self.state != STATE_PREPARED:
            raise EnrollmentError(f"connect in state {self.state}")
        summary = self._timed("ratls-attested-connect", client.summary)
        self.state = STATE_ENROLLED
        return summary

    def run(self, client) -> List[StepTiming]:
        """Run both steps; returns the timing breakdown."""
        self.prepare()
        self.connect(client)
        return list(self.timings)
