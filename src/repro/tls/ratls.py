"""RA-TLS: SGX attestation riding inside the TLS handshake.

Following Knauth et al., *Integrating Remote Attestation with Transport
Layer Security*, the connecting enclave presents a **self-signed**
certificate carrying its SGX quote in a certificate extension.  The
quote's 64-byte report-data field commits to the certificate's EC public
key, so verifying the quote (signature, identity, IAS verdict) plus the
TLS proof of key possession authenticates the peer *as that enclave* —
no out-of-band attestation round and no CA-issued credential needed
before the first byte of application data.

Two properties make reconnects cheap:

* **Verdict reuse** — the quote bytes inside the certificate never
  change between reconnects, so the Verification Manager's
  ``VerificationCache`` answers every handshake after the first without
  an IAS round trip.  Freshness does not need a per-handshake nonce:
  the CertificateVerify/key-exchange signature proves *live* possession
  of the quoted key, which is the RA-TLS replacement for the enrollment
  protocol's nonce-in-report-data.
* **Attested resumption** — the server's session cache resumes the
  TLS session itself, skipping even the quote re-validation.  The
  :class:`RatlsVerifier` plugs into ``TlsConfig.resumption_validator``
  so a *revoked* attested identity can never resume: revocation both
  denylists the subject and evicts its cached sessions.

Lock discipline: the verifier's internal lock is a **leaf** in the
documented order (domain ``ratls``, see ``docs/CONCURRENCY.md``) — it
only guards the denylists/counters and is never held across IAS calls,
identity checks, or session-cache sweeps.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.sanitizer import make_lock
from repro.crypto.keys import EcPrivateKey
from repro.crypto.sha256 import sha256
from repro.errors import (
    AttestationFailed,
    CryptoError,
    PkiError,
    RatlsError,
)
from repro.net.clock import VirtualClock
from repro.pki.certificate import (
    KEY_USAGE_CLIENT_AUTH,
    KEY_USAGE_DIGITAL_SIGNATURE,
    KEY_USAGE_SERVER_AUTH,
    Certificate,
)
from repro.pki.name import DistinguishedName
from repro.sgx.quote import Quote
from repro.tls.session import SessionCache, TlsSession

#: Organization attribute marking RA-TLS subjects (and keying audit rows).
RATLS_ORG = "ratls"

#: Extension name carrying the serialized SGX quote.
EXT_SGX_QUOTE = "sgx-quote"

#: RA-TLS certificates are self-signed, so serials carry no CA meaning.
RATLS_SERIAL = 0


def ratls_report_data(public_key_bytes: bytes) -> bytes:
    """The 64-byte report-data commitment to an RA-TLS leaf key.

    Same two-hash construction as the enrollment protocol's
    ``binding_hash``, under its own domain-separation labels: a quote
    generated for RA-TLS can never be replayed into the provisioning
    flow or vice versa.
    """
    return sha256(b"ratls-key-binding:v1:" + public_key_bytes) + sha256(
        b"ratls-key-binding:v2:" + public_key_bytes
    )


def build_ratls_certificate(key: EcPrivateKey, subject_name: str,
                            quote_bytes: bytes, now: int,
                            validity_seconds: int,
                            san: Tuple[str, ...] = ()) -> Certificate:
    """A self-signed leaf whose :data:`EXT_SGX_QUOTE` extension carries
    ``quote_bytes``.  The caller must have generated the quote over
    :func:`ratls_report_data` of ``key``'s public bytes — the verifier
    rejects the certificate otherwise."""
    name = DistinguishedName(subject_name, organization=RATLS_ORG)
    unsigned = Certificate(
        serial=RATLS_SERIAL,
        subject=name,
        issuer=name,
        public_key_bytes=key.public.to_bytes(),
        not_before=now,
        not_after=now + validity_seconds,
        key_usage=(KEY_USAGE_CLIENT_AUTH, KEY_USAGE_SERVER_AUTH,
                   KEY_USAGE_DIGITAL_SIGNATURE),
        san=tuple(san),
        extensions=((EXT_SGX_QUOTE, quote_bytes),),
    )
    return replace(unsigned, signature=key.sign(unsigned.tbs_bytes()))


def quote_from_certificate(certificate: Certificate) -> Quote:
    """Extract and parse the embedded SGX quote.

    Raises:
        RatlsError: when the extension is missing or unparseable.
    """
    quote_bytes = certificate.extension(EXT_SGX_QUOTE)
    if quote_bytes is None:
        raise RatlsError(
            f"certificate {certificate.subject} carries no {EXT_SGX_QUOTE} "
            "extension"
        )
    try:
        return Quote.from_bytes(quote_bytes)
    except Exception as exc:  # noqa: BLE001 — any parse failure is fatal
        raise RatlsError(f"malformed embedded quote: {exc}") from exc


#: Callback verifying quote evidence against IAS (+ cache); raises
#: :class:`~repro.errors.AttestationFailed` on a bad verdict.
EvidenceVerifier = Callable[[Quote, str], None]

#: Callback checking enclave identity (MRENCLAVE/SVN/debug) against policy.
IdentityChecker = Callable[[Quote, str], None]


class RatlsVerifier:
    """Validates quote-bearing peer certificates during TLS handshakes.

    Plugs into ``TlsConfig`` twice: :meth:`validate` as the
    ``client_validator``, and :meth:`resumable` as the
    ``resumption_validator``.  The attestation machinery itself is
    injected — ``verify_evidence`` is the Verification Manager's
    IAS-with-cache path and ``check_identity`` its policy check — so the
    verifier owns only the RA-TLS-specific logic: structural checks,
    key binding, and revocation.  ``clock`` (the manager's) times the
    validity checks, and its telemetry counts validations and
    resumption decisions.

    Thread-safety: handshakes from concurrent fleet workers call
    :meth:`validate` in parallel while the manager revokes on another
    thread.  The internal lock (leaf domain ``ratls``) guards only the
    denylists and bookkeeping maps; evidence verification, identity
    checks, and session-cache evictions all run outside it.
    """

    def __init__(self, verify_evidence: EvidenceVerifier,
                 check_identity: IdentityChecker,
                 clock: VirtualClock) -> None:
        self._verify_evidence = verify_evidence
        self._check_identity = check_identity
        self._clock = clock
        self._lock = make_lock("ratls")
        self._denied_subjects: set = set()
        self._denied_hosts: set = set()
        self._subject_hosts: Dict[str, Tuple[str, ...]] = {}
        self._session_caches: List[SessionCache] = []
        self.validations = 0
        self.accepted = 0
        self.rejected = 0
        self.resumption_checks = 0
        self.resumptions_denied = 0

    # ------------------------------------------------------------ wiring

    def attach_session_cache(self, cache: SessionCache) -> None:
        """Register a session cache to sweep on revocation."""
        with self._lock:
            if cache not in self._session_caches:
                self._session_caches.append(cache)

    def register_subject(self, subject_name: str,
                         hosts: Iterable[str] = ()) -> None:
        """Pre-register an attested identity and its host(s).

        Lets :meth:`revoke_host` find subjects that enrolled but have
        not reconnected yet, and :meth:`knows_subject` answer before the
        first handshake.
        """
        with self._lock:
            self._subject_hosts.setdefault(subject_name, tuple(hosts))

    def knows_subject(self, subject_name: str) -> bool:
        """Has this verifier seen or registered ``subject_name``?"""
        with self._lock:
            return subject_name in self._subject_hosts

    def knows_host(self, host_name: str) -> bool:
        """Does any attested identity live on ``host_name``?  Lets the
        Verification Manager distrust a host that only ever carried
        RA-TLS identities (and so was never host-attested)."""
        with self._lock:
            return any(host_name in hosts
                       for hosts in self._subject_hosts.values())

    # -------------------------------------------------------- validation

    def validate(self, certificate: Certificate) -> None:
        """``client_validator`` hook: full attested validation of a peer.

        Checks, in order: self-signature over the TBS bytes, validity
        window at the clock's time, quote extraction, report-data key
        binding, the revocation denylist, enclave identity, and the IAS
        evidence path (which memoizes verdicts, so reconnects are free).

        Raises:
            RatlsError: on any failure — a :class:`PkiError` subclass,
                so the TLS server answers with ``bad_certificate``.
        """
        tel = self._clock.telemetry
        with self._lock:
            self.validations += 1
        try:
            self._validate_inner(certificate)
        except PkiError:
            with self._lock:
                self.rejected += 1
            tel.ratls_validations.labels(result="rejected").inc()
            raise
        with self._lock:
            self.accepted += 1
        tel.ratls_validations.labels(result="accepted").inc()

    def _validate_inner(self, certificate: Certificate) -> None:
        subject = certificate.subject.common_name
        if not certificate.is_self_signed():
            raise RatlsError(
                f"RA-TLS certificate {subject} must be self-signed"
            )
        try:
            certificate.verify_signature(certificate.public_key)
        except CryptoError as exc:
            raise RatlsError(
                f"RA-TLS self-signature invalid for {subject}: {exc}"
            ) from exc
        certificate.check_validity(int(self._clock.now()))

        quote = quote_from_certificate(certificate)
        expected = ratls_report_data(certificate.public_key_bytes)
        if quote.report_data != expected:
            raise RatlsError(
                f"quote report-data does not bind the certificate key of "
                f"{subject}"
            )

        with self._lock:
            if (subject in self._denied_subjects
                    or any(host in self._denied_hosts
                           for host in certificate.san)):
                raise RatlsError(f"attested identity {subject} is revoked")

        # Attestation outside the lock: identity policy first (cheap,
        # local), then the IAS evidence path (cached after first use).
        try:
            self._check_identity(quote, subject)
            self._verify_evidence(quote, subject)
        except AttestationFailed as exc:
            raise RatlsError(f"attestation failed for {subject}: {exc}") from exc

        with self._lock:
            self._subject_hosts[subject] = certificate.san

    def resumable(self, session: TlsSession) -> bool:
        """``resumption_validator`` hook: may this session skip
        re-validation?  Denies sessions whose attested identity (or
        host) has been revoked; the forced full handshake then delivers
        the definitive refusal through :meth:`validate`."""
        tel = self._clock.telemetry
        certificate = session.peer_certificate
        with self._lock:
            self.resumption_checks += 1
            denied = certificate is not None and (
                certificate.subject.common_name in self._denied_subjects
                or any(host in self._denied_hosts
                       for host in certificate.san)
            )
            if denied:
                self.resumptions_denied += 1
        tel.ratls_resumption_checks.labels(
            result="denied" if denied else "allowed"
        ).inc()
        return not denied

    # -------------------------------------------------------- revocation

    def revoke_subject(self, subject_name: str) -> None:
        """Deny future validations *and* resumptions for one identity."""
        with self._lock:
            self._denied_subjects.add(subject_name)
            caches = list(self._session_caches)
        self._evict(caches, {subject_name})

    def revoke_host(self, host_name: str) -> List[str]:
        """Deny every attested identity on ``host_name``; returns the
        subjects affected (for verification-cache invalidation)."""
        with self._lock:
            self._denied_hosts.add(host_name)
            doomed = sorted(
                subject for subject, hosts in self._subject_hosts.items()
                if host_name in hosts
            )
            self._denied_subjects.update(doomed)
            caches = list(self._session_caches)
        self._evict(caches, set(doomed), host_name)
        return doomed

    def _evict(self, caches: List[SessionCache], subjects: set,
               host_name: Optional[str] = None) -> None:
        """Sweep revoked identities out of the attached session caches.

        Runs after the verifier lock is released: ``invalidate_where``
        takes each cache's own lock, and holding ours across it would
        pin an order between the ``ratls`` leaf and foreign domains.
        """

        def doomed(session: TlsSession) -> bool:
            cert = session.peer_certificate
            if cert is None:
                return False
            return (cert.subject.common_name in subjects
                    or (host_name is not None and host_name in cert.san))

        for cache in caches:
            cache.invalidate_where(doomed)


__all__ = [
    "EXT_SGX_QUOTE",
    "RATLS_ORG",
    "RATLS_SERIAL",
    "RatlsVerifier",
    "build_ratls_certificate",
    "quote_from_certificate",
    "ratls_report_data",
]
