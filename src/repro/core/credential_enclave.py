"""The VNF credential enclave (TEE 1 / TEE 2 in Figure 1).

"The credentials do not leave at any point the security context of the
enclaves.  Thus, to communicate with the network controller a VNF invokes
its corresponding enclave, which then establishes a TLS session with the
network controller.  ...the security context established for each TLS
session (including the session key) does not leave the enclave."
(paper, section 2.)

Everything sensitive — the delivery key, the provisioned private key, the
TLS client and its session keys — lives in enclave-private memory and is
touched only inside ECALLs.  The network itself is reached through an
OCALL that returns a raw (untrusted) channel; TLS protects the bytes on it.
"""

from __future__ import annotations

import json
from typing import Callable, Optional, Tuple

from repro.crypto.keys import EcPrivateKey, generate_keypair
from repro.errors import ProvisioningError, SdnError
from repro.net.address import Address
from repro.net.rest import HttpRequest
from repro.net.transport import ClientStream
from repro.pki.certificate import Certificate
from repro.pki.truststore import Truststore
from repro.sgx.enclave import Enclave, EnclaveImage
from repro.sgx.quote import Quote
from repro.sgx.report import Report, TargetInfo
from repro.sgx.sealing import SealedBlob
from repro.sgx.sigstruct import sign_image
from repro.core.provisioning import (
    CredentialBundle,
    ProvisioningMessage,
    binding_hash,
    decrypt_bundle,
)
from repro.sdn.vnf import ControllerOps
from repro.tls import TlsClient, TlsConfig


class CredentialEnclaveBehavior:
    """The enclave's measured code."""

    ECALLS = (
        "begin_provisioning",
        "get_binding_report",
        "complete_provisioning",
        "generate_csr",
        "install_certificate",
        "ratls_begin",
        "ratls_install",
        "has_credentials",
        "credential_subject",
        "request",
        "disconnect",
        "seal_credentials",
        "restore_credentials",
        "wipe_credentials",
    )

    def __init__(self, api, open_channel: Callable[[str], object],
                 untrusted_now: Callable[[], int]) -> None:
        self._api = api
        self._open_channel = open_channel
        self._untrusted_now = untrusted_now

    # ------------------------------------------------------- provisioning

    def begin_provisioning(self, vm_nonce: bytes) -> bytes:
        """Generate the in-enclave delivery key; returns its public half."""
        delivery_key = generate_keypair(self._api.rng)
        self._api.memory.write("delivery_key", delivery_key)
        self._api.memory.write("vm_nonce", vm_nonce)
        return delivery_key.public.to_bytes()

    def get_binding_report(self, qe_target: TargetInfo) -> bytes:
        """A report binding the delivery key to this enclave's identity."""
        if not self._api.memory.contains("delivery_key"):
            raise ProvisioningError("begin_provisioning was not called")
        delivery_key: EcPrivateKey = self._api.memory.read("delivery_key")
        vm_nonce: bytes = self._api.memory.read("vm_nonce")
        report = self._api.create_report(
            qe_target,
            binding_hash(delivery_key.public.to_bytes(), vm_nonce),
        )
        return report.to_bytes()

    def complete_provisioning(self, message_bytes: bytes) -> str:
        """Decrypt and install the credential bundle (step 5)."""
        if not self._api.memory.contains("delivery_key"):
            raise ProvisioningError("no provisioning in progress")
        delivery_key: EcPrivateKey = self._api.memory.read("delivery_key")
        message = ProvisioningMessage.from_bytes(message_bytes)
        bundle = decrypt_bundle(
            delivery_key.scalar, delivery_key.public.to_bytes(), message
        )
        self._install_bundle(bundle)
        # One-shot delivery key: forward secrecy for later provisionings.
        self._api.memory.delete("delivery_key")
        self._api.memory.delete("vm_nonce")
        return bundle.leaf_certificate().subject.common_name

    # ------------------------------------------- CSR provisioning variant

    def generate_csr(self, subject_name: str, vm_nonce: bytes) -> bytes:
        """Generate the client key pair *inside* the enclave; return a CSR.

        The alternative provisioning path: the private key never exists
        anywhere but this enclave, not even transiently at the
        Verification Manager.  The key is bound to the attestation quote
        the same way the delivery key is (via ``get_binding_report`` over
        the CSR public key).
        """
        from repro.pki.csr import create_csr
        from repro.pki.name import DistinguishedName

        client_key = generate_keypair(self._api.rng)
        csr = create_csr(client_key, DistinguishedName(subject_name, "vnf"))
        self._api.memory.write("csr_key", client_key)
        # Reuse the delivery-key binding slot so get_binding_report covers
        # the CSR key: quote binds hash(public key, nonce).
        self._api.memory.write("delivery_key", client_key)
        self._api.memory.write("vm_nonce", vm_nonce)
        return csr.to_bytes()

    def install_certificate(self, certificate_bytes: bytes,
                            anchors: Tuple[bytes, ...],
                            controller_address: str) -> str:
        """Complete the CSR path: install the CA-signed certificate."""
        if not self._api.memory.contains("csr_key"):
            raise ProvisioningError("no CSR in progress")
        client_key: EcPrivateKey = self._api.memory.read("csr_key")
        certificate = Certificate.from_bytes(certificate_bytes)
        if certificate.public_key_bytes != client_key.public.to_bytes():
            raise ProvisioningError(
                "issued certificate does not match the in-enclave key"
            )
        bundle = CredentialBundle(
            private_key_bytes=client_key.to_bytes(),
            certificate_chain=(certificate_bytes,),
            controller_anchors=tuple(anchors),
            controller_address=controller_address,
        )
        self._install_bundle(bundle)
        for slot in ("csr_key", "delivery_key", "vm_nonce"):
            self._api.memory.delete(slot)
        return certificate.subject.common_name

    # --------------------------------------------- RA-TLS credential path

    def ratls_begin(self, qe_target: TargetInfo) -> bytes:
        """Generate the RA-TLS leaf key in-enclave; returns a report whose
        report-data commits to the key (Knauth et al.'s binding).

        No VM nonce: RA-TLS freshness comes from the TLS handshake's
        proof of key possession, not from a per-run challenge — that is
        what lets the IAS verdict for this quote be reused verbatim on
        every reconnect.
        """
        from repro.tls.ratls import ratls_report_data

        ratls_key = generate_keypair(self._api.rng)
        self._api.memory.write("ratls_key", ratls_key)
        return self._api.create_report(
            qe_target, ratls_report_data(ratls_key.public.to_bytes())
        ).to_bytes()

    def ratls_install(self, quote_bytes: bytes, subject_name: str,
                      san: Tuple[str, ...], anchors: Tuple[bytes, ...],
                      controller_address: str,
                      validity_seconds: int) -> str:
        """Assemble the quote-bearing self-signed certificate and install
        it as this enclave's controller credential."""
        from repro.tls.ratls import build_ratls_certificate, ratls_report_data

        if not self._api.memory.contains("ratls_key"):
            raise ProvisioningError("ratls_begin was not called")
        ratls_key: EcPrivateKey = self._api.memory.read("ratls_key")
        quote = Quote.from_bytes(quote_bytes)
        if quote.report_data != ratls_report_data(
                ratls_key.public.to_bytes()):
            raise ProvisioningError(
                "quote does not bind the in-enclave RA-TLS key"
            )
        certificate = build_ratls_certificate(
            ratls_key, subject_name, quote_bytes,
            now=self._untrusted_now(), validity_seconds=validity_seconds,
            san=tuple(san),
        )
        bundle = CredentialBundle(
            private_key_bytes=ratls_key.to_bytes(),
            certificate_chain=(certificate.to_bytes(),),
            controller_anchors=tuple(anchors),
            controller_address=controller_address,
        )
        self._install_bundle(bundle)
        self._api.memory.delete("ratls_key")
        return subject_name

    def _install_bundle(self, bundle: CredentialBundle) -> None:
        private_key = EcPrivateKey.from_bytes(bundle.private_key_bytes)
        chain = [Certificate.from_bytes(c) for c in bundle.certificate_chain]
        anchors = Truststore(
            [Certificate.from_bytes(c) for c in bundle.controller_anchors]
        )
        if chain and chain[0].public_key_bytes != private_key.public.to_bytes():
            raise ProvisioningError("bundle key does not match certificate")
        self._api.memory.write("bundle", bundle)
        self._api.memory.write("tls_client", TlsClient(TlsConfig(
            certificate_chain=chain,
            private_key=private_key,
            truststore=anchors,
            rng=self._api.rng,
        )))
        self._api.memory.write("controller_address",
                               bundle.controller_address)

    # ------------------------------------------------------------ queries

    def has_credentials(self) -> bool:
        """True once a bundle is installed."""
        return self._api.memory.contains("bundle")

    def credential_subject(self) -> str:
        """The provisioned certificate's common name."""
        bundle: CredentialBundle = self._api.memory.read("bundle")
        return bundle.leaf_certificate().subject.common_name

    # ----------------------------------------------------- controller I/O

    def _connect_controller(self):
        """The controller stream's opener: an OCALL for the raw channel,
        then the TLS handshake, inside the enclave."""
        if not self._api.memory.contains("bundle"):
            raise ProvisioningError("enclave holds no credentials")
        address = self._api.memory.read("controller_address")
        channel = self._api.ocall(self._open_channel, address)
        client: TlsClient = self._api.memory.read("tls_client")
        return client.connect(channel, server_name=address)

    def request(self, method: str, path: str,
                body: bytes = b"") -> Tuple[int, bytes]:
        """One HTTPS exchange with the controller, fully inside the enclave.

        The stream holder lives in enclave memory, so the TLS session it
        carries never leaves the enclave.
        """
        if not self._api.memory.contains("conn"):
            self._api.memory.write("conn",
                                   ClientStream(self._connect_controller))
        response = self._api.memory.read("conn").exchange_http(
            HttpRequest(method, path, body=body))
        if response is None:
            raise SdnError("controller returned no response")
        return response.status, response.body

    def disconnect(self) -> None:
        """Close the controller session (session keys are wiped with it)."""
        if self._api.memory.contains("conn"):
            self._api.memory.read("conn").close()

    # -------------------------------------------------------- persistence

    def seal_credentials(self) -> bytes:
        """Seal the bundle for storage across enclave restarts (E8)."""
        bundle: CredentialBundle = self._api.memory.read("bundle")
        return self._api.seal(bundle.to_bytes()).to_bytes()

    def restore_credentials(self, blob_bytes: bytes) -> str:
        """Unseal and reinstall a previously sealed bundle."""
        plaintext = self._api.unseal(SealedBlob.from_bytes(blob_bytes))
        bundle = CredentialBundle.from_bytes(plaintext)
        self._install_bundle(bundle)
        return bundle.leaf_certificate().subject.common_name

    def wipe_credentials(self) -> None:
        """Destroy installed credentials (revocation hygiene)."""
        self.disconnect()
        for key in ("bundle", "tls_client", "controller_address"):
            self._api.memory.delete(key)


def credential_enclave_image(network, source_host: str) -> EnclaveImage:
    """Build the image with OCALL hooks bound to one host's network stack."""

    def open_channel(address_text: str):
        return network.connect(source_host, Address.parse(address_text))

    def factory(api):
        return CredentialEnclaveBehavior(api, open_channel,
                                         network.clock.now_seconds)

    base = EnclaveImage.from_behavior_class(
        CredentialEnclaveBehavior, "vnf-credential-enclave"
    )
    return EnclaveImage(name=base.name, version=base.version,
                        code=base.code, behavior_factory=factory)


def reference_measurement() -> bytes:
    """The MRENCLAVE a verifier should expect for this enclave."""
    from repro.sgx.measurement import measure_image

    base = EnclaveImage.from_behavior_class(
        CredentialEnclaveBehavior, "vnf-credential-enclave"
    )
    return measure_image(base.code)


class CredentialEnclave:
    """Host-side handle for one VNF's credential enclave."""

    def __init__(self, host, vendor_key: EcPrivateKey, network,
                 vnf_name: str, isv_svn: int = 1,
                 image: Optional[EnclaveImage] = None) -> None:
        self.host = host
        self.vnf_name = vnf_name
        image = image or credential_enclave_image(network, host.name)
        sigstruct = sign_image(vendor_key, image.code,
                               vendor="RISE-credentials",
                               isv_prod_id=200, isv_svn=isv_svn)
        self.enclave: Enclave = host.platform.create_enclave(
            image, sigstruct, label=f"{host.name}/tee-{vnf_name}"
        )

    # -------------------------------------------------------- provisioning

    def begin_provisioning(self, vm_nonce: bytes) -> bytes:
        """Start provisioning; returns the in-enclave delivery public key."""
        return self.enclave.ecall("begin_provisioning", vm_nonce)

    def quote_binding(self, basename: bytes) -> Quote:
        """Quote the delivery-key binding (steps 3-4's evidence)."""
        qe = self.host.platform.quoting_enclave
        report_bytes = self.enclave.ecall("get_binding_report",
                                          qe.target_info())
        return qe.generate(Report.from_bytes(report_bytes), basename)

    def complete_provisioning(self, message: ProvisioningMessage) -> str:
        """Deliver the encrypted bundle into the enclave."""
        return self.enclave.ecall("complete_provisioning", message.to_bytes())

    def generate_csr(self, subject_name: str, vm_nonce: bytes) -> bytes:
        """CSR variant: in-enclave key generation; returns the CSR bytes."""
        return self.enclave.ecall("generate_csr", subject_name, vm_nonce)

    def install_certificate(self, certificate_bytes: bytes,
                            anchors, controller_address: str) -> str:
        """CSR variant: install the CA-signed certificate."""
        return self.enclave.ecall("install_certificate", certificate_bytes,
                                  tuple(anchors), controller_address)

    # --------------------------------------------------------------- RA-TLS

    def ratls_begin(self, basename: bytes) -> Quote:
        """Start the RA-TLS path: returns the quote binding the in-enclave
        leaf key (report-data = hash of its public key)."""
        qe = self.host.platform.quoting_enclave
        report_bytes = self.enclave.ecall("ratls_begin", qe.target_info())
        return qe.generate(Report.from_bytes(report_bytes), basename)

    def ratls_install(self, quote: Quote, anchors, controller_address: str,
                      validity_seconds: int) -> str:
        """Finish the RA-TLS path: the enclave self-signs its quote-bearing
        certificate and installs it as the controller credential."""
        return self.enclave.ecall(
            "ratls_install", quote.to_bytes(), self.vnf_name,
            (self.host.name,), tuple(anchors), controller_address,
            validity_seconds,
        )

    # ------------------------------------------------------------ REST API

    @property
    def client(self) -> "EnclaveBackedClient":
        """A controller client whose TLS runs inside this enclave."""
        return EnclaveBackedClient(self)

    def has_credentials(self) -> bool:
        """True once provisioned."""
        return self.enclave.ecall("has_credentials")

    def seal_credentials(self) -> bytes:
        """Sealed bundle for offline storage."""
        return self.enclave.ecall("seal_credentials")

    def restore_credentials(self, blob_bytes: bytes) -> str:
        """Reinstall sealed credentials after a restart."""
        return self.enclave.ecall("restore_credentials", blob_bytes)

    def wipe(self) -> None:
        """Drop credentials and close sessions."""
        self.enclave.ecall("wipe_credentials")


class EnclaveBackedClient(ControllerOps):
    """Same operations as :class:`repro.sdn.vnf.VnfRestClient`, but every
    byte of TLS state stays inside the credential enclave."""

    def __init__(self, credential_enclave: CredentialEnclave) -> None:
        self._enclave = credential_enclave.enclave

    def request_json(self, method: str, path: str,
                     payload: Optional[dict] = None) -> dict:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        status, response_body = self._enclave.ecall("request", method, path,
                                                    body)
        if status != 200:
            raise SdnError(
                f"{method} {path} -> {status}: "
                f"{response_body.decode(errors='replace')}"
            )
        return json.loads(response_body.decode("utf-8"))

    def close(self) -> None:
        """Close the in-enclave controller session."""
        self._enclave.ecall("disconnect")
