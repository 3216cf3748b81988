"""The Verification Manager — the paper's central component.

"We introduce a Verification Manager module that has a central position in
our proposed architecture: it obtains integrity measurements of VNFs
through an attestation protocol and appraises the trustworthiness of the
platform.  Furthermore, it handles the communication with third-party
attestation services, generates the HMAC key and nonces, as well as the
certificates for the client authentication."  (paper, section 2.)

Responsibilities implemented here, keyed to Figure 1:

- step 1/2: remote attestation of container hosts, IAS verification,
  IML appraisal (optionally TPM-rooted);
- step 3/4: remote attestation of VNF credential enclaves;
- step 5: CA duties — key generation, certificate signing, encrypted
  provisioning into the attested enclave;
- revocation: CRLs for credentials, IAS revocation for platforms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.sanitizer import make_rlock
from repro.core import events as ev
from repro.core.appraisal import AppraisalEngine, AppraisalResult, ExpectedValues
from repro.core.attestation_enclave import attestation_report_data
from repro.core.host_agent import HostAgentClient
from repro.core.policy import DeploymentPolicy
from repro.core.provisioning import (
    CredentialBundle,
    binding_hash,
    encrypt_bundle,
)
from repro.core.verification_cache import VerificationCache
from repro.crypto.keys import EcPublicKey, generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import AttestationFailed, RevocationError, VnfSgxError
from repro.ias.api import IasClient
from repro.ias.report import AttestationVerificationReport
from repro.net.clock import VirtualClock
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import Certificate, KEY_USAGE_CLIENT_AUTH
from repro.pki.crl import REASON_PLATFORM_UNTRUSTED, REASON_UNSPECIFIED
from repro.pki.csr import CertificateSigningRequest
from repro.pki.name import DistinguishedName
from repro.pki.truststore import Truststore
from repro.sgx.quote import Quote


def _custody(csr: bool) -> Tuple[str, str, str]:
    """A key custody's telemetry variant, the name of the key its quote
    binds, and the suffix of its audit details."""
    if csr:
        return "csr", "CSR key", " (csr)"
    return "delivery", "delivery key", ""


class HostTrustRecord:
    """What the VM remembers about an attested host."""

    def __init__(self, host_name: str, attested_at: float,
                 appraisal: AppraisalResult) -> None:
        self.host_name = host_name
        self.attested_at = attested_at
        self.appraisal = appraisal
        self.revoked = False

    @property
    def trusted(self) -> bool:
        """Current trust verdict."""
        return self.appraisal.trustworthy and not self.revoked


class VerificationManager:
    """The deployment's trust root."""

    #: Modelled verifier-side cost of appraising one IML entry (two hash
    #: applications plus a golden-value lookup).  Charged to the virtual
    #: clock so attestation latency scales with measurement-list size
    #: (experiment E2); tune per deployment hardware.
    APPRAISAL_SECONDS_PER_ENTRY = 5e-6

    def __init__(self, ias_client: IasClient, policy: DeploymentPolicy,
                 expected_values: ExpectedValues, rng: HmacDrbg,
                 clock: VirtualClock) -> None:
        self._ias = ias_client
        self.policy = policy
        self.appraisal_engine = AppraisalEngine(
            expected_values, require_tpm=policy.require_tpm
        )
        #: The deployment's clock: time, telemetry and retry policy.
        self.clock = clock
        self._rng = rng
        self.ca = CertificateAuthority(
            DistinguishedName("Verification-Manager-CA", "RISE"),
            now=self.clock.now_seconds(), rng=self._rng,
        )
        self.audit = ev.AuditLog(self.clock)
        #: Memoised IAS verdicts for RA-TLS quotes, which repeat byte for
        #: byte on a full re-handshake.  Revocation paths flush it.
        self.verification_cache = VerificationCache()
        #: Guards the trust-state maps below plus the revocation paths.
        #: Lock ordering: the VM lock may be taken *before* the CA lock
        #: and the cache locks, never after (``docs/CONCURRENCY.md``).
        self._lock = make_rlock("vm")
        #: Per-VNF credential key derivation.  Each VNF's key pair (and
        #: bundle-encryption randomness) comes from a dedicated DRBG
        #: seeded from one root draw, so the credentials a VNF receives
        #: do not depend on how many *other* enrollments interleaved
        #: their draws on the shared RNG — a serial loop and a worker
        #: pool produce byte-identical certificates.
        self._credential_root = self._rng.random_bytes(32)
        self._credential_rngs: Dict[str, HmacDrbg] = {}
        self._hosts: Dict[str, HostTrustRecord] = {}
        self._aiks: Dict[str, EcPublicKey] = {}
        self._issued: Dict[str, Certificate] = {}  # vnf name -> current cert
        self._vnf_host: Dict[str, str] = {}        # vnf name -> host name
        self._crl_subscribers: List[object] = []   # TlsConfigs to refresh
        self._ratls_verifiers: List[object] = []   # RatlsVerifier instances

    def swap_ias_client(self, client: IasClient) -> IasClient:
        """Install a different IAS client; returns the previous one.

        A fleet run swaps in a :class:`repro.core.fleet.PooledIasClient`
        (one persistent IAS connection shared across verifications) for
        its duration, then restores the original.
        """
        with self._lock:
            previous, self._ias = self._ias, client
            return previous

    # --------------------------------------------------------------- trust

    def controller_truststore(self) -> Truststore:
        """What the controller is provisioned with instead of per-client
        certificates: just this CA (paper, section 3)."""
        return Truststore([self.ca.certificate])

    def register_host_tpm(self, host_name: str,
                          aik_public: EcPublicKey) -> None:
        """Out-of-band AIK registration during host onboarding."""
        with self._lock:
            self._aiks[host_name] = aik_public

    def host_trusted(self, host_name: str) -> bool:
        """Is ``host_name`` currently appraised as trustworthy?"""
        with self._lock:
            record = self._hosts.get(host_name)
            return record is not None and record.trusted

    def _credential_rng(self, vnf_name: str) -> HmacDrbg:
        """The DRBG that generates ``vnf_name``'s credential material.

        Cached per VNF so a re-enrollment *continues* the stream (and
        therefore yields a fresh key) instead of replaying the old one.
        """
        with self._lock:
            rng = self._credential_rngs.get(vnf_name)
            if rng is None:
                rng = HmacDrbg(
                    self._credential_root,
                    personalization=b"credential:" + vnf_name.encode("utf-8"),
                )
                self._credential_rngs[vnf_name] = rng
            return rng

    # ------------------------------------------------------- steps 1 and 2

    def attest_host(self, agent: HostAgentClient,
                    host_name: str) -> AppraisalResult:
        """Remote-attest a container host and appraise its IML.

        Raises:
            AttestationFailed: IAS rejection, wrong enclave identity, or
                broken evidence binding.  Appraisal failures are returned
                in the result (and recorded), not raised, so callers can
                inspect them.
        """
        tel = self.clock.telemetry
        start = tel.now()
        outcome = "error"
        try:
            with tel.span("host-attestation", host=host_name):
                result = self._attest_host(agent, host_name)
            outcome = "trusted" if result.trustworthy else "rejected"
            return result
        finally:
            tel.host_attestation_seconds.labels(result=outcome).observe(
                tel.now() - start
            )

    def _attest_host(self, agent: HostAgentClient,
                     host_name: str) -> AppraisalResult:
        nonce = self._rng.random_bytes(16)
        evidence = agent.attest_host(nonce, self.policy.basename)
        self._verify_quote_with_ias(evidence.quote, nonce, host_name)
        self._check_identity(
            evidence.quote, self.policy.expected_attestation_mrenclave,
            host_name, "attestation enclave",
        )
        expected_binding = attestation_report_data(
            evidence.iml_bytes, evidence.aggregate,
            evidence.tpm_quote_bytes, nonce,
        )
        if evidence.quote.report_data != expected_binding:
            self.audit.record(ev.EVENT_HOST_REJECTED, host_name,
                              "evidence binding mismatch")
            raise AttestationFailed(
                f"{host_name}: quote does not bind the shipped evidence"
            )
        result = self.appraisal_engine.appraise(
            evidence.iml_bytes,
            evidence.aggregate,
            tpm_quote_bytes=evidence.tpm_quote_bytes,
            aik_public=self._aiks.get(host_name),
            nonce=nonce,
        )
        self.clock.advance(
            result.entries_checked * self.APPRAISAL_SECONDS_PER_ENTRY,
            "appraisal-compute",
        )
        with self._lock:
            self._hosts[host_name] = HostTrustRecord(
                host_name, self.clock.now(), result
            )
        if result.trustworthy:
            self.audit.record(ev.EVENT_HOST_ATTESTED, host_name,
                              f"{result.entries_checked} IML entries")
        else:
            self.audit.record(ev.EVENT_APPRAISAL_FAILED, host_name,
                              "; ".join(result.failures))
        return result

    # ------------------------------------------------------- steps 3 and 4

    def attest_vnf(self, agent: HostAgentClient, host_name: str,
                   vnf_name: str) -> bytes:
        """Attest a VNF enclave; returns its bound delivery public key."""
        return self._attest_vnf(agent, host_name, vnf_name, csr=False)

    def _attest_vnf(self, agent: HostAgentClient, host_name: str,
                    vnf_name: str, csr: bool
                    ) -> Union[bytes, CertificateSigningRequest]:
        """Steps 3-4: attest a VNF enclave and return the key its quote
        binds: the delivery public key, or with ``csr`` the enclave's
        verified :class:`~repro.pki.csr.CertificateSigningRequest`.

        The host must have passed appraisal first ("the protocol continues
        only if the host is considered trustworthy").
        """
        variant, label, suffix = _custody(csr)
        tel = self.clock.telemetry
        with tel.span("enclave-attestation", vnf=vnf_name, host=host_name), \
                tel.time(tel.vnf_attestation_seconds.labels(variant=variant)):
            if not self.host_trusted(host_name):
                raise AttestationFailed(
                    f"refusing to attest VNF {vnf_name}: host {host_name} "
                    "is not trusted"
                )
            vm_nonce = self._rng.random_bytes(16)
            if csr:
                key = CertificateSigningRequest.from_bytes(
                    agent.generate_csr(vnf_name, vnf_name, vm_nonce)
                )
                key.verify_proof_of_possession()
                if key.subject.common_name != vnf_name:
                    raise AttestationFailed(
                        f"CSR names {key.subject.common_name!r}, expected "
                        f"{vnf_name!r}"
                    )
                public_key = key.public_key_bytes
            else:
                key = public_key = agent.begin_provisioning(vnf_name,
                                                            vm_nonce)
            quote = Quote.from_bytes(agent.quote_vnf(vnf_name,
                                                     self.policy.basename))
            self._verify_quote_with_ias(quote, vm_nonce, vnf_name)
            self._check_identity(
                quote, self.policy.expected_credential_mrenclave,
                vnf_name, "credential enclave",
            )
            if quote.report_data != binding_hash(public_key, vm_nonce):
                self.audit.record(ev.EVENT_VNF_REJECTED, vnf_name,
                                  f"{label} binding mismatch")
                raise AttestationFailed(
                    f"{vnf_name}: quote does not bind the {label}"
                )
            self.audit.record(ev.EVENT_VNF_ATTESTED, vnf_name,
                              f"on {host_name}{suffix}")
            return key

    # --------------------------------------------------------------- step 5

    def enroll_vnf(self, agent: HostAgentClient, host_name: str,
                   vnf_name: str, controller_address: str,
                   serial: Optional[int] = None,
                   csr: bool = False) -> Certificate:
        """Attest, issue, and provision credentials for one VNF.

        Returns the issued client certificate.  By default the VM
        generates the private key and delivers it encrypted to the
        attested enclave, never storing it (the paper's step 5).  With
        ``csr`` the enclave generates the key pair itself and sends a
        CSR whose public key its quote binds, so the private key never
        exists outside the enclave; the VM installs the signed
        certificate.

        Args:
            serial: a certificate serial previously obtained from
                :meth:`repro.pki.ca.CertificateAuthority.reserve_serial`;
                ``None`` allocates the next one.  Fleet schedulers reserve
                serials in submission order so pooled and serial
                enrollments issue byte-identical certificates.
            csr: the key custody: ``True`` keeps the key in the enclave.
        """
        variant, _, suffix = _custody(csr)
        tel = self.clock.telemetry
        with tel.span("credential-provisioning", vnf=vnf_name,
                      variant=variant), \
                tel.time(tel.provisioning_seconds.labels(variant=variant)):
            key = self._attest_vnf(agent, host_name, vnf_name, csr)
            with tel.span("credential-issuance", vnf=vnf_name):
                if csr:
                    certificate = self.ca.issue_from_csr(
                        key, now=self.clock.now_seconds(),
                        validity=self.policy.credential_validity,
                        serial=serial,
                    )
                else:
                    credential_rng = self._credential_rng(vnf_name)
                    client_key = generate_keypair(credential_rng)
                    certificate = self.ca.issue(
                        subject=DistinguishedName(vnf_name, "vnf"),
                        public_key_bytes=client_key.public.to_bytes(),
                        now=self.clock.now_seconds(),
                        validity=self.policy.credential_validity,
                        key_usage=(KEY_USAGE_CLIENT_AUTH,),
                        serial=serial,
                    )
            self.audit.record(ev.EVENT_CREDENTIAL_ISSUED, vnf_name,
                              f"serial {certificate.serial}{suffix}")
            anchors = tuple(anchor.to_bytes() for anchor
                            in self.controller_truststore().anchors())
            if csr:
                subject = agent.install_certificate(
                    vnf_name, certificate.to_bytes(), anchors,
                    controller_address,
                )
            else:
                bundle = CredentialBundle(
                    private_key_bytes=client_key.to_bytes(),
                    certificate_chain=(certificate.to_bytes(),),
                    controller_anchors=anchors,
                    controller_address=controller_address,
                )
                message = encrypt_bundle(key, bundle, credential_rng)
                subject = agent.complete_provisioning(vnf_name,
                                                      message.to_bytes())
            if subject != vnf_name:
                raise VnfSgxError(
                    f"provisioning confirmation mismatch: {subject!r}"
                )
            with self._lock:
                self._issued[vnf_name] = certificate
                self._vnf_host[vnf_name] = host_name
                self._refresh_stale_crl()
            self.audit.record(ev.EVENT_CREDENTIAL_PROVISIONED, vnf_name,
                              f"serial {certificate.serial}{suffix}")
        tel.credentials_issued.labels(variant=variant).inc()
        tel.enrolled_vnfs.set(len(self._issued))
        return certificate

    # ---------------------------------------------------------------- RA-TLS

    def verify_ratls_evidence(self, quote: Quote, subject: str) -> None:
        """RA-TLS evidence hook: verify an embedded quote via the IAS
        path with verdict memoisation.

        The nonce is **empty** by design: the quote inside an RA-TLS
        certificate is generated once (report-data binds the leaf key,
        not a challenge) and re-presented verbatim on every full
        handshake, so the :class:`VerificationCache` answers each one
        after the first without an IAS round trip.  Handshake freshness
        comes from the TLS proof of key possession instead.
        """
        quote_bytes = quote.to_bytes()
        avr = self.verification_cache.lookup(quote_bytes)
        self.clock.telemetry.verification_cache_events.labels(
            result="miss" if avr is None else "hit"
        ).inc()
        if avr is None:
            avr = self._verify_quote_with_ias(quote, b"", subject)
            self.verification_cache.store(quote_bytes, subject, avr)
        else:
            # A hit still faces the body-binding and verdict checks, so
            # a cache bug can never turn a rejected quote into an
            # accepted one.
            self._check_verdict(quote, avr, subject)

    def check_credential_identity(self, quote: Quote, subject: str) -> None:
        """RA-TLS identity hook: the embedded quote must name the
        credential-enclave measurement and satisfy SVN/debug policy."""
        self._check_identity(
            quote, self.policy.expected_credential_mrenclave,
            subject, "credential enclave",
        )

    def ratls_verifier(self):
        """A :class:`repro.tls.ratls.RatlsVerifier` wired to this VM's
        IAS path, identity policy, clock, and revocation flow.

        Every verifier created here is remembered so :meth:`revoke_vnf`
        and :meth:`distrust_host` extend to attested identities that
        hold no CA-issued certificate.
        """
        from repro.tls.ratls import RatlsVerifier

        verifier = RatlsVerifier(
            verify_evidence=self.verify_ratls_evidence,
            check_identity=self.check_credential_identity,
            clock=self.clock,
        )
        with self._lock:
            self._ratls_verifiers.append(verifier)
        return verifier

    # ------------------------------------------------------------ revocation

    def subscribe_crl(self, tls_config) -> None:
        """Register a TLS config (e.g. the controller's) for CRL pushes."""
        with self._lock:
            self._crl_subscribers.append(tls_config)
            tls_config.crl = self.ca.current_crl(self.clock.now_seconds())

    def revoke_vnf(self, vnf_name: str,
                   reason: str = REASON_UNSPECIFIED) -> None:
        """Revoke a VNF's credentials and push the fresh CRL.

        Atomic under the VM lock: a concurrent enrollment never observes
        the window between the CA marking the serial revoked and the CRL
        push / cache flush (lock ordering: VM lock, then CA lock, then
        cache locks).
        """
        with self._lock:
            certificate = self._issued.get(vnf_name)
            verifiers = list(self._ratls_verifiers)
            if certificate is None and not any(
                    v.knows_subject(vnf_name) for v in verifiers):
                raise RevocationError(
                    f"no credentials issued to {vnf_name!r}"
                )
            if certificate is not None:
                self.ca.revoke(certificate.serial,
                               self.clock.now_seconds(), reason)
                self._publish_crl()
            # A revoked VNF must not keep a memoised "trustworthy"
            # verdict: its RA-TLS quote has to face IAS again.
            self.verification_cache.invalidate_subject(vnf_name)
        # RA-TLS identities hold no CA serial, so the CRL cannot reach
        # them: the verifier denylists the subject and evicts its cached
        # TLS sessions instead.  Outside the VM lock — the verifier's
        # eviction sweep takes session-cache locks of its own.
        for verifier in verifiers:
            verifier.revoke_subject(vnf_name)
        detail = (f"serial {certificate.serial} ({reason})"
                  if certificate is not None else f"ratls ({reason})")
        self.audit.record(ev.EVENT_CREDENTIAL_REVOKED, vnf_name, detail)

    def distrust_host(self, host_name: str) -> List[str]:
        """Mark a host untrusted and revoke the credentials enrolled *on
        that host* (others are unaffected — the containment property).

        Returns the names of the revoked VNFs.  (Platform-level EPID
        revocation at IAS is the operator's separate step.)
        """
        with self._lock:
            record = self._hosts.get(host_name)
            # A host serving only RA-TLS identities was never
            # host-attested, yet its enclaves must still be revocable
            # (verifier.knows_host takes only the ratls leaf lock).
            if record is None and not any(
                    verifier.knows_host(host_name)
                    for verifier in self._ratls_verifiers):
                raise RevocationError(
                    f"host {host_name!r} was never attested"
                )
            if record is not None:
                record.revoked = True
            self.audit.record(ev.EVENT_PLATFORM_REVOKED, host_name)
            revoked = []
            for vnf_name, certificate in list(self._issued.items()):
                if self._vnf_host.get(vnf_name) != host_name:
                    continue
                self.ca.revoke(certificate.serial, self.clock.now_seconds(),
                               REASON_PLATFORM_UNTRUSTED)
                revoked.append(vnf_name)
            if revoked:
                self._publish_crl()
            verifiers = list(self._ratls_verifiers)
        # RA-TLS identities enrolled on the host: denylist them and evict
        # their sessions (outside the VM lock — see revoke_vnf).
        ratls_doomed = set()
        for verifier in verifiers:
            ratls_doomed.update(verifier.revoke_host(host_name))
        revoked.extend(sorted(ratls_doomed - set(revoked)))
        # One flush over every subject revoked here, CA-issued ones too:
        # a name enrolled both ways has its RA-TLS verdict stored under
        # that name (SessionCache.invalidate_where pattern).
        doomed = set(revoked)
        self.verification_cache.invalidate_where(
            lambda entry: entry.subject in doomed
        )
        return revoked

    def _refresh_stale_crl(self) -> None:
        # Callers hold the VM lock.  No timer re-publishes the CRL, so an
        # issuance does it when the installed one is past its next
        # update; otherwise the new credential's first full handshake
        # would be refused on the stale CRL.
        now = self.clock.now_seconds()
        if any(not config.crl.is_current(now)
               for config in self._crl_subscribers):
            self._publish_crl()

    def _publish_crl(self) -> None:
        # Callers hold the VM lock; subscriber TLS configs are refreshed
        # before any other thread can see the revocation half-applied.
        crl = self.ca.current_crl(self.clock.now_seconds())
        for config in self._crl_subscribers:
            config.crl = crl
            # Resumed sessions bypass certificate validation, so evict any
            # cached session that was authenticated by a now-revoked cert.
            if config.session_cache is not None:
                config.session_cache.invalidate_where(
                    lambda session: (
                        session.peer_certificate is not None
                        and crl.is_revoked(session.peer_certificate.serial)
                    )
                )

    # -------------------------------------------------------------- helpers

    def issued_certificate(self, vnf_name: str) -> Certificate:
        """The current certificate for an enrolled VNF."""
        with self._lock:
            try:
                return self._issued[vnf_name]
            except KeyError as exc:
                raise VnfSgxError(f"{vnf_name!r} is not enrolled") from exc

    def _verify_quote_with_ias(self, quote: Quote, nonce: bytes,
                               subject: str) -> AttestationVerificationReport:
        """Have IAS verify ``quote`` and check its verdict; returns the
        checked report.  Steps 1-4 call this for every quote: each
        attempt draws a fresh nonce, so their verdicts are never memoised.
        """
        tel = self.clock.telemetry
        with tel.span("ias-verification", subject=subject) as span, \
                tel.time(tel.ias_verification_seconds.labels()):
            avr = self._ias.verify_quote(quote.to_bytes(), nonce=nonce.hex())
            span.set_attribute("status", avr.quote_status)
        self._check_verdict(quote, avr, subject)
        return avr

    def _check_verdict(self, quote: Quote,
                       avr: AttestationVerificationReport,
                       subject: str) -> None:
        if avr.isv_enclave_quote_body != quote.body_bytes().hex():
            raise AttestationFailed(
                f"{subject}: AVR covers a different quote body"
            )
        if not avr.ok:
            self.audit.record(ev.EVENT_HOST_REJECTED, subject,
                              f"IAS verdict {avr.quote_status}")
            raise AttestationFailed(
                f"{subject}: IAS verdict {avr.quote_status}"
            )

    def _check_identity(self, quote: Quote, expected_mrenclave: bytes,
                        subject: str, kind: str) -> None:
        if quote.mrenclave != expected_mrenclave:
            self.audit.record(ev.EVENT_HOST_REJECTED, subject,
                              f"wrong {kind} measurement")
            raise AttestationFailed(
                f"{subject}: {kind} MRENCLAVE "
                f"{quote.mrenclave.hex()[:16]}... does not match policy"
            )
        if not self.policy.check_enclave_svn(quote.isv_svn):
            raise AttestationFailed(
                f"{subject}: {kind} SVN {quote.isv_svn} below policy floor "
                f"{self.policy.min_isv_svn}"
            )
        if quote.debug and not self.policy.allow_debug_enclaves:
            self.audit.record(ev.EVENT_HOST_REJECTED, subject,
                              f"DEBUG {kind}")
            raise AttestationFailed(
                f"{subject}: {kind} runs with the DEBUG attribute — its "
                "memory is host-readable, refusing to trust it"
            )
