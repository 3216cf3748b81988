"""The quoting enclave: local reports in, EPID-signed quotes out.

The QE is itself an enclave (its image is measured and launched like any
other); its private memory holds the platform's EPID member key, provisioned
by the IAS model during platform registration.  ``get_quote`` verifies the
local report's MAC — proving the reported enclave really runs on this
platform — then signs the quote body with the group key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.gcm import AesGcm
from repro.crypto.keys import EcPrivateKey, generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import QuoteError
from repro.pki import der
from repro.sgx.epid import EpidMemberKey, EpidSignature, epid_sign
from repro.sgx.report import Report
from repro.sgx.sigstruct import sign_image

QE_VENDOR = "Intel-QE-model"
QE_PROD_ID = 1
QE_SVN = 2

# The QE vendor signing key is a process-wide constant (the model's stand-in
# for Intel's architectural-enclave signing key).
_QE_SIGNING_KEY: EcPrivateKey = generate_keypair(HmacDrbg(b"intel-qe-vendor-key"))


@dataclass(frozen=True)
class Quote:
    """A remotely verifiable attestation quote."""

    mrenclave: bytes
    mrsigner: bytes
    isv_prod_id: int
    isv_svn: int
    report_data: bytes
    qe_svn: int
    basename: bytes
    attributes: int = 0
    epid_signature: bytes = b""

    @property
    def debug(self) -> bool:
        """True when the quoted enclave runs in DEBUG mode (host-readable
        memory) — production verifiers must reject such quotes."""
        from repro.sgx.enclave import ATTRIBUTE_DEBUG

        return bool(self.attributes & ATTRIBUTE_DEBUG)

    def body_bytes(self) -> bytes:
        """The EPID-signed portion."""
        return der.encode([
            self.mrenclave, self.mrsigner, self.isv_prod_id, self.isv_svn,
            self.report_data, self.qe_svn, self.basename, self.attributes,
        ])

    def to_bytes(self) -> bytes:
        """Serialized quote (what travels to the Verification Manager/IAS)."""
        return der.encode([
            self.mrenclave, self.mrsigner, self.isv_prod_id, self.isv_svn,
            self.report_data, self.qe_svn, self.basename, self.attributes,
            self.epid_signature,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Quote":
        """Parse a serialized quote."""
        (mrenclave, mrsigner, isv_prod_id, isv_svn, report_data, qe_svn,
         basename, attributes, epid_signature) = der.decode(data)
        return cls(mrenclave, mrsigner, isv_prod_id, isv_svn, report_data,
                   qe_svn, basename, attributes, epid_signature)

    def signature(self) -> EpidSignature:
        """The decoded EPID signature."""
        return EpidSignature.from_bytes(self.epid_signature)


class QeBehavior:
    """The quoting enclave's measured code."""

    ECALLS = ("provision_member", "get_quote")

    def __init__(self, api) -> None:
        self._api = api

    def provision_member(self, member_key: EpidMemberKey,
                         sealing_key: bytes) -> None:
        """Store the platform's EPID member key in enclave-private memory,
        with the AEAD over its member-id sealing key, built once here for
        every quote the QE will sign."""
        self._api.memory.write("epid_member", member_key)
        self._api.memory.write("epid_sealing_aead", AesGcm(sealing_key))

    def get_quote(self, report_bytes: bytes, basename: bytes) -> bytes:
        """Verify a local report aimed at the QE; return a signed quote."""
        report = Report.from_bytes(report_bytes)
        self._api.verify_report(report)
        if not self._api.memory.contains("epid_member"):
            raise QuoteError("platform has no EPID member key provisioned")
        member: EpidMemberKey = self._api.memory.read("epid_member")
        sealing_aead: AesGcm = self._api.memory.read("epid_sealing_aead")
        quote = Quote(
            mrenclave=report.mrenclave,
            mrsigner=report.mrsigner,
            isv_prod_id=report.isv_prod_id,
            isv_svn=report.isv_svn,
            report_data=report.report_data,
            qe_svn=QE_SVN,
            basename=basename,
            attributes=report.attributes,
        )
        signature = epid_sign(member, sealing_aead, quote.body_bytes(),
                              basename, self._api.rng)
        import dataclasses

        return dataclasses.replace(
            quote, epid_signature=signature.to_bytes()
        ).to_bytes()


def qe_image():
    """The QE's image and vendor-signed SIGSTRUCT."""
    from repro.sgx.enclave import EnclaveImage

    image = EnclaveImage.from_behavior_class(QeBehavior, "quoting-enclave")
    sigstruct = sign_image(_QE_SIGNING_KEY, image.code, QE_VENDOR,
                           isv_prod_id=QE_PROD_ID, isv_svn=QE_SVN)
    return image, sigstruct


class QuotingEnclave:
    """Host-side handle to the platform's QE."""

    def __init__(self, enclave) -> None:
        self._enclave = enclave

    @property
    def enclave(self):
        """The underlying enclave instance."""
        return self._enclave

    def target_info(self):
        """TargetInfo application enclaves aim their reports at."""
        return self._enclave.target_info()

    def provision(self, member_key: EpidMemberKey, sealing_key: bytes) -> None:
        """Install the EPID member key (called during IAS registration)."""
        self._enclave.ecall("provision_member", member_key, sealing_key)

    def generate(self, report: Report, basename: bytes) -> Quote:
        """Turn a local report into a signed quote."""
        quote_bytes = self._enclave.ecall(
            "get_quote", report.to_bytes(), basename
        )
        return Quote.from_bytes(quote_bytes)
