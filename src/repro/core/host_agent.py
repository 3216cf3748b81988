"""The host agent: the container host's endpoint for Verification Manager
requests.

Transport is a framed request/response protocol on the simulated network.
The channel itself is *untrusted by design*: every security-relevant
payload that crosses it is self-protecting — quotes are EPID-signed and
nonce-bound, provisioning bundles are encrypted to attested in-enclave
keys.  (The paper's prototype additionally wraps this link in mbedTLS-SGX;
the trust analysis is identical because the secure channel's endpoints are
themselves established via attestation.)
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.sanitizer import make_rlock
from repro.core.attestation_enclave import AttestationEnclave, QuotedEvidence
from repro.core.credential_enclave import CredentialEnclave
from repro.core.provisioning import ProvisioningMessage
from repro.errors import VnfSgxError
from repro.net.address import Address
from repro.net.retry import retry_call
from repro.net.simnet import Network
from repro.net.transport import ClientStream, serve_frames
from repro.pki import der

AGENT_PORT = 7000


class HostAgent:
    """Serves attestation/provisioning operations for one container host."""

    def __init__(self, host, attestation_enclave: AttestationEnclave,
                 network: Network, port: int = AGENT_PORT) -> None:
        self.host = host
        self.address = Address(host.name, port)
        self._attestation = attestation_enclave
        self._credential_enclaves: Dict[str, CredentialEnclave] = {}
        serve_frames(network, self.address, self._handle)

    def register_vnf(self, credential_enclave: CredentialEnclave) -> None:
        """Expose a VNF's credential enclave to the Verification Manager."""
        self._credential_enclaves[credential_enclave.vnf_name] = (
            credential_enclave
        )

    def credential_enclave(self, vnf_name: str) -> CredentialEnclave:
        """Look up a registered enclave."""
        try:
            return self._credential_enclaves[vnf_name]
        except KeyError as exc:
            raise VnfSgxError(
                f"host {self.host.name} has no VNF enclave {vnf_name!r}"
            ) from exc

    # ------------------------------------------------------------ serving

    def _handle(self, frame: bytes) -> bytes:
        try:
            request = der.decode(frame)
            op = request[0]
            if op == "attest_host":
                _, nonce, basename = request
                evidence = self._attestation.collect_quoted_evidence(
                    nonce, basename
                )
                return der.encode(["ok", evidence.to_bytes()])
            if op == "begin_provisioning":
                _, vnf_name, vm_nonce = request
                enclave = self.credential_enclave(vnf_name)
                return der.encode(["ok", enclave.begin_provisioning(vm_nonce)])
            if op == "quote_vnf":
                _, vnf_name, basename = request
                enclave = self.credential_enclave(vnf_name)
                return der.encode(
                    ["ok", enclave.quote_binding(basename).to_bytes()]
                )
            if op == "complete_provisioning":
                _, vnf_name, message_bytes = request
                enclave = self.credential_enclave(vnf_name)
                subject = enclave.complete_provisioning(
                    ProvisioningMessage.from_bytes(message_bytes)
                )
                return der.encode(["ok", subject])
            if op == "generate_csr":
                _, vnf_name, subject_name, vm_nonce = request
                enclave = self.credential_enclave(vnf_name)
                return der.encode(
                    ["ok", enclave.generate_csr(subject_name, vm_nonce)]
                )
            if op == "install_certificate":
                _, vnf_name, certificate_bytes, anchors, address = request
                enclave = self.credential_enclave(vnf_name)
                subject = enclave.install_certificate(
                    certificate_bytes, tuple(anchors), address
                )
                return der.encode(["ok", subject])
            return der.encode(["error", f"unknown operation {op!r}"])
        except Exception as exc:  # noqa: BLE001 — agent must stay up
            return der.encode(["error", f"{type(exc).__name__}: {exc}"])


class HostAgentClient:
    """The Verification Manager's stub for one host agent.

    The stub keeps one persistent framed channel (a
    :class:`~repro.net.transport.ClientStream`); the retry policy on the
    network's clock (read at each call, see :mod:`repro.net.retry`) makes
    every call resilient to transient transport faults (refused
    connects, mid-stream drops): each re-attempt re-establishes the
    channel and re-sends the request.
    Application-level agent errors (``VnfSgxError``) are never retried.

    Thread-safe: the persistent channel is a lockstep request/response
    rail, so concurrent fleet workers sharing one stub serialize *whole*
    exchanges under an internal lock — exactly the sharing rule
    :mod:`repro.net.channel` documents (see ``docs/CONCURRENCY.md``).
    """

    def __init__(self, network: Network, address: Address,
                 source_host: str = "verification-manager") -> None:
        self._network = network
        self._address = address
        self._stream = ClientStream(
            lambda: network.connect(source_host, address))
        self._exchange_lock = make_rlock("agent")

    @property
    def address(self) -> Address:
        """The agent endpoint this stub talks to."""
        return self._address

    def _exchange(self, payload: bytes) -> bytes:
        # A suspect channel (dropped mid-stream, half-closed, out of
        # lockstep) is dropped inside the exchange, so a retry starts
        # clean.
        with self._exchange_lock:
            return self._stream.exchange_frame(payload)

    def _call(self, request: list):
        payload = der.encode(request)
        response = der.decode(retry_call(
            lambda: self._exchange(payload),
            clock=self._network.clock, operation="host-agent",
        ))
        if response[0] != "ok":
            raise VnfSgxError(f"host agent error: {response[1]}")
        return response[1]

    def attest_host(self, nonce: bytes, basename: bytes) -> QuotedEvidence:
        """Step 1: request quoted host evidence."""
        return QuotedEvidence.from_bytes(
            self._call(["attest_host", nonce, basename])
        )

    def begin_provisioning(self, vnf_name: str, vm_nonce: bytes) -> bytes:
        """Ask a VNF enclave for its delivery public key."""
        return self._call(["begin_provisioning", vnf_name, vm_nonce])

    def quote_vnf(self, vnf_name: str, basename: bytes) -> bytes:
        """Step 3: request the VNF enclave's binding quote (serialized)."""
        return self._call(["quote_vnf", vnf_name, basename])

    def complete_provisioning(self, vnf_name: str,
                              message_bytes: bytes) -> str:
        """Step 5: deliver the encrypted credential bundle."""
        return self._call(["complete_provisioning", vnf_name, message_bytes])

    def generate_csr(self, vnf_name: str, subject_name: str,
                     vm_nonce: bytes) -> bytes:
        """CSR variant: ask the enclave for an in-enclave-keyed CSR."""
        return self._call(["generate_csr", vnf_name, subject_name, vm_nonce])

    def install_certificate(self, vnf_name: str, certificate_bytes: bytes,
                            anchors, address: str) -> str:
        """CSR variant: deliver the signed certificate."""
        return self._call(["install_certificate", vnf_name,
                           certificate_bytes, list(anchors), address])
