"""Exception hierarchy shared by every subsystem in the library.

All library-raised errors derive from :class:`ReproError` so applications can
catch everything from one root.  Subsystem roots (``CryptoError``,
``TlsError``, ``SgxError``, ...) exist so tests can assert the *kind* of
failure without string matching.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


# ---------------------------------------------------------------- crypto

class CryptoError(ReproError):
    """Root for cryptographic failures."""


class InvalidSignature(CryptoError):
    """A signature failed verification."""


class InvalidTag(CryptoError):
    """An AEAD authentication tag failed verification."""


class InvalidKey(CryptoError):
    """A key is malformed, of the wrong type, or outside its valid range."""


class InvalidPoint(CryptoError):
    """An elliptic-curve point is not on the curve or is the identity."""


class EntropyError(CryptoError):
    """A DRBG was used before seeding or exceeded its reseed interval."""


# ---------------------------------------------------------------- encoding / PKI

class EncodingError(ReproError):
    """Malformed serialized data (DER-lite and the PKI objects built on it)."""


class PkiError(ReproError):
    """Root for certificate/trust failures."""


class CertificateError(PkiError):
    """A certificate is malformed or fails constraint checks."""


class CertificateExpired(CertificateError):
    """A certificate is outside its validity window."""


class CertificateRevoked(CertificateError):
    """A certificate appears on a CRL."""


class UntrustedCertificate(PkiError):
    """No chain to a trust anchor could be built."""


class RatlsError(PkiError):
    """An RA-TLS (quote-bearing) certificate failed attested validation.

    Subclasses :class:`PkiError` so the TLS server's certificate-validation
    path converts it into a ``bad_certificate`` alert like any other peer
    validation failure."""


class KeystoreError(PkiError):
    """A keystore/truststore operation failed."""


#: Java-keystore-style spelling, kept as an alias so callers can catch the
#: name the KMS docs use without a second class in the hierarchy.
KeyStoreError = KeystoreError


# ---------------------------------------------------------------- network

class NetError(ReproError):
    """Root for simulated-network failures."""


class AddressError(NetError):
    """Unknown or malformed network address."""


class ChannelClosed(NetError):
    """I/O attempted on a closed channel."""


class ConnectionRefused(NetError):
    """No listener at the destination address/port."""


class FramingError(NetError):
    """A length-prefixed frame is malformed or oversized."""


class RestError(NetError):
    """Malformed HTTP/REST message."""


# ---------------------------------------------------------------- TLS

class TlsError(ReproError):
    """Root for TLS protocol failures."""


class TlsAlert(TlsError):
    """A fatal alert was raised or received.

    Attributes:
        description: numeric alert description code (see ``repro.tls.alerts``).
    """

    def __init__(self, description: int, message: str = "") -> None:
        super().__init__(message or f"TLS alert {description}")
        self.description = description


class HandshakeFailure(TlsError):
    """The handshake could not be completed."""


class RecordError(TlsError):
    """A TLS record is malformed, oversized, or fails decryption."""


# ---------------------------------------------------------------- SGX

class SgxError(ReproError):
    """Root for SGX-model failures."""


class EnclaveLifecycleError(SgxError):
    """An enclave operation was attempted in the wrong lifecycle state."""


class EnclaveMemoryViolation(SgxError):
    """Code outside an enclave touched enclave-private memory."""


class EcallError(SgxError):
    """An ECALL target does not exist or its invocation failed."""


class SealingError(SgxError):
    """Sealed-blob unsealing failed (wrong platform, identity, or tamper)."""


class QuoteError(SgxError):
    """Quote generation or verification failed."""


class LaunchError(SgxError):
    """SIGSTRUCT/launch-control rejected the enclave."""


# ---------------------------------------------------------------- attestation services

class IasError(ReproError):
    """Root for Intel-Attestation-Service failures."""


class IasUnavailable(IasError):
    """IAS answered with a transient 5xx/429 — retryable, unlike a verdict."""


# ---------------------------------------------------------------- IMA / TPM

class ImaError(ReproError):
    """Root for integrity-measurement failures."""


class PolicyError(ImaError):
    """An IMA policy rule is malformed."""


class TpmError(ReproError):
    """Root for TPM-model failures."""


# ---------------------------------------------------------------- containers

class ContainerError(ReproError):
    """Root for container-substrate failures."""


class ImageNotFound(ContainerError):
    """Requested image/tag is not in the registry."""


class ContainerStateError(ContainerError):
    """A container operation was attempted in the wrong state."""


# ---------------------------------------------------------------- SDN

class SdnError(ReproError):
    """Root for SDN-substrate failures."""


class ControllerUnavailable(SdnError):
    """The northbound endpoint answered with a transient 5xx — retryable."""


class FlowError(SdnError):
    """Flow-rule installation or lookup failed."""


class TopologyError(SdnError):
    """Switch/link registration problem."""


class FabricError(SdnError):
    """Trusted-fabric failure (replication, failover, fan-out)."""


class ReplicationError(FabricError):
    """The replicated keystore log rejected an entry (gap, divergence)."""


# ---------------------------------------------------------------- core

class VnfSgxError(ReproError):
    """Root for errors raised by the paper's core components."""


class AttestationFailed(VnfSgxError):
    """Remote attestation of a host or VNF enclave failed."""


class AppraisalFailed(VnfSgxError):
    """The measurement list did not match the expected values."""


class EnrollmentError(VnfSgxError):
    """The VNF enrolment protocol failed."""


class ProvisioningError(VnfSgxError):
    """Credential provisioning to an enclave failed."""


class RevocationError(VnfSgxError):
    """Credential or platform revocation failed."""


# ---------------------------------------------------------------- key manager

class KmsError(ReproError):
    """Root for key-manager-service failures."""


class NamespaceError(KmsError):
    """A tenant namespace is missing, malformed, or already exists."""


class TenantAuthError(KmsError):
    """A request carried no valid authorization for the target namespace."""


class TenantQuotaExceeded(KmsError):
    """A tenant exceeded its secret-count or request-rate quota."""


class SecretNotFound(KmsError):
    """The named secret does not exist in the tenant's namespace."""


class KmsUnavailable(KmsError):
    """The KMS endpoint answered with a transient 5xx — retryable."""


# --------------------------------------------------------------------------
# Observability


class ObservabilityError(ReproError):
    """Telemetry misuse: bad metric names, label mismatches, span errors."""
