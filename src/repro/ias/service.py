"""The attestation service core.

One :class:`IasService` manages one EPID group: it provisions platforms
with member keys (into their quoting enclaves), verifies submitted quotes,
maintains both revocation lists, and signs verdicts with its report key.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import EcPrivateKey, EcPublicKey, generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import IasError, QuoteError, ReproError
from repro.ias.report import AttestationVerificationReport, sign_report
from repro.ias.revocation_lists import PrivRl, SigRl
from repro.sgx.epid import EpidGroup
from repro.sgx.platform import SgxPlatform
from repro.sgx.quote import Quote


class QuoteStatus:
    """AVR status strings (the subset of real IAS verdicts we model)."""

    OK = "OK"
    SIGNATURE_INVALID = "SIGNATURE_INVALID"
    KEY_REVOKED = "KEY_REVOKED"
    SIGNATURE_REVOKED = "SIGNATURE_REVOKED"
    GROUP_REVOKED = "GROUP_REVOKED"
    GROUP_OUT_OF_DATE = "GROUP_OUT_OF_DATE"


class IasService:
    """The attestation service.

    Args:
        rng: randomness (group/master keys, report ids).
        now: time source for AVR timestamps.
        group_id: EPID group identifier.
    """

    def __init__(self, rng: HmacDrbg, now: Callable[[], int],
                 group_id: bytes = b"epid-group-0") -> None:
        self._rng = rng
        self._now = now
        self.group = EpidGroup(group_id, self._rng.random_bytes(32))
        self._report_key: EcPrivateKey = generate_keypair(self._rng)
        self.priv_rl = PrivRl()
        self.sig_rl = SigRl()
        self.group_revoked = False
        # Platforms whose quoting enclave is older than this SVN get the
        # GROUP_OUT_OF_DATE verdict (the TCB-recovery mechanism: after a
        # microcode/QE update, IAS raises the floor).
        self.min_qe_svn = 0
        self._platforms: Dict[bytes, str] = {}  # member id -> platform name
        self._report_counter = 0
        self.quotes_verified = 0

    # --------------------------------------------------------- provisioning

    @property
    def report_signing_public_key(self) -> EcPublicKey:
        """The key relying parties verify AVRs against."""
        return self._report_key.public

    def register_platform(self, platform: SgxPlatform) -> bytes:
        """Provision a platform's QE with an EPID member key.

        Returns the member id (IAS-internal handle for later revocation).
        """
        member = self.group.issue_member(self._rng)
        platform.provision_epid(member, self.group.sealing_key())
        self._platforms[member.member_id] = platform.name
        return member.member_id

    def platform_name(self, member_id: bytes) -> Optional[str]:
        """Registered platform name for a member id."""
        return self._platforms.get(member_id)

    # ----------------------------------------------------------- revocation

    def revoke_member(self, member_id: bytes) -> None:
        """Put a platform's key on the PrivRL."""
        if member_id not in self._platforms:
            raise IasError("unknown EPID member id")
        self.priv_rl.add(member_id)

    def revoke_platform(self, platform_name: str) -> None:
        """Revoke every member key registered for ``platform_name``."""
        hits = [mid for mid, name in self._platforms.items()
                if name == platform_name]
        if not hits:
            raise IasError(f"no registered platform named {platform_name!r}")
        for member_id in hits:
            self.priv_rl.add(member_id)

    def revoke_quote_signature(self, quote: Quote) -> None:
        """Put a specific quote's signature on the SigRL."""
        self.sig_rl.add(quote.signature())

    def revoke_group(self) -> None:
        """Revoke the whole group (catastrophic compromise)."""
        self.group_revoked = True

    # ---------------------------------------------------------- verification

    def verify_quote(self, quote_bytes: bytes,
                     nonce: str = "") -> AttestationVerificationReport:
        """Verify a quote and return the signed verdict.

        The order of checks mirrors real IAS: group status, signature
        validity, key revocation, signature revocation.
        """
        self.quotes_verified += 1
        quote = Quote.from_bytes(quote_bytes)
        status = self._status_for(quote)
        self._report_counter += 1
        return sign_report(
            self._report_key,
            report_id=f"avr-{self._report_counter:08d}",
            timestamp=int(self._now()),
            quote_status=status,
            quote_body_hex=quote.body_bytes().hex(),
            nonce=nonce,
        )

    def verify_quotes(self, batch: Sequence[Tuple[bytes, str]]
                      ) -> List[AttestationVerificationReport]:
        """Verify ``(quote_bytes, nonce)`` pairs in order; each verdict is
        exactly what :meth:`verify_quote` returns for that pair."""
        return [self.verify_quote(quote_bytes, nonce)
                for quote_bytes, nonce in batch]

    def _status_for(self, quote: Quote) -> str:
        if self.group_revoked:
            return QuoteStatus.GROUP_REVOKED
        try:
            signature = quote.signature()
            self.group.verify(signature, quote.body_bytes())
        except (QuoteError, ReproError):
            return QuoteStatus.SIGNATURE_INVALID
        if self.priv_rl.matches(signature,
                                self.group.derive_member_secret) is not None:
            return QuoteStatus.KEY_REVOKED
        if self.sig_rl.matches(signature):
            return QuoteStatus.SIGNATURE_REVOKED
        if quote.qe_svn < self.min_qe_svn:
            return QuoteStatus.GROUP_OUT_OF_DATE
        return QuoteStatus.OK

    def raise_tcb_floor(self, min_qe_svn: int) -> None:
        """TCB recovery: demand a quoting-enclave SVN of at least
        ``min_qe_svn`` from now on."""
        self.min_qe_svn = min_qe_svn
