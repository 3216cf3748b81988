"""The IAS REST binding: HTTPS endpoint + client.

The paper's Verification Manager "contacts the Intel Attestation Service
using the protocol provided by the SGX implementation"; the real service is
an HTTPS API.  :class:`IasHttpService` exposes
``POST /attestation/v4/report`` (quote in, AVR out) and
``GET /attestation/v4/sigrl`` on the simulated network over server-
authenticated TLS, counting every verdict it returns in
``vnf_sgx_ias_verdicts_total{status=...}``; :class:`IasClient` is the
relying-party stub.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.crypto.keys import EcPublicKey, generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import IasError, IasUnavailable
from repro.ias.report import AttestationVerificationReport
from repro.ias.service import IasService
from repro.net.address import Address
from repro.net.rest import (
    TRANSIENT_STATUSES,
    HttpRequest,
    HttpResponse,
    RestServer,
)
from repro.net.retry import RetryingMixin
from repro.net.simnet import Network
from repro.net.transport import ClientStream, injected_fault, serve_http
from repro.pki.ca import CertificateAuthority
from repro.pki.name import DistinguishedName
from repro.pki.truststore import Truststore
from repro.tls import TlsClient, TlsConfig, TlsServer

REPORT_PATH = "/attestation/v4/report"
SIGRL_PATH = "/attestation/v4/sigrl"


class IasHttpService:
    """Serves an :class:`IasService` over HTTPS on the simulated network."""

    def __init__(self, service: IasService, network: Network,
                 address: Address, rng: Optional[HmacDrbg] = None) -> None:
        self.service = service
        self.address = address
        self._network = network
        # IAS runs its own private CA for its HTTPS endpoint; relying
        # parties get the CA certificate out of band (ias_truststore).
        self._ca = CertificateAuthority(
            DistinguishedName("IAS-Root", "Intel-model"),
            now=network.clock.now_seconds(), rng=rng,
        )
        server_key = generate_keypair(rng)
        server_cert = self._ca.issue_server_certificate(
            DistinguishedName(address.host), server_key.public.to_bytes(),
            now=network.clock.now_seconds(),
        )
        self._rest = RestServer()
        self._rest.route("POST", REPORT_PATH, self._handle_report)
        self._rest.route("GET", SIGRL_PATH, self._handle_sigrl)
        tls_config = TlsConfig(
            certificate_chain=[server_cert],
            private_key=server_key,
            rng=rng,
            now=network.clock.now_seconds,
        )
        serve_http(network, address,
                   lambda request, _stream: self._respond(request),
                   tls=TlsServer(tls_config))

    @property
    def ias_truststore(self) -> Truststore:
        """Anchors for connecting to this IAS endpoint."""
        return Truststore([self._ca.certificate])

    # ------------------------------------------------------------ handlers

    def _respond(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one request, honouring any installed fault plan.

        An injected ``http_error`` schedule (e.g. "IAS returns 503 for
        the next N requests") answers here without touching the
        :class:`IasService` — the outage is purely at the REST surface,
        exactly like a real IAS brown-out.
        """
        return (injected_fault(self._network, self.address, "service")
                or self._rest.dispatch(request))

    def _handle_report(self, request: HttpRequest) -> HttpResponse:
        try:
            body = json.loads(request.body.decode("utf-8"))
            quote_bytes = bytes.fromhex(body["isvEnclaveQuote"])
            nonce = body.get("nonce", "")
        except (ValueError, KeyError) as exc:
            return HttpResponse(400, body=f"bad request: {exc}".encode())
        avr = self.service.verify_quote(quote_bytes, nonce)
        self._network.clock.telemetry.ias_verdicts.labels(
            status=avr.quote_status).inc()
        return HttpResponse(200, headers={"content-type": "application/json"},
                            body=avr.to_json())

    def _handle_sigrl(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, body=self.service.sig_rl.to_bytes().hex().encode())


class IasClient(RetryingMixin):
    """Relying-party stub used by the Verification Manager.

    Configure a :class:`~repro.net.retry.RetryPolicy` via
    :meth:`configure_retries` and transient failures — connection
    refusals, mid-stream drops, and 5xx/429 answers
    (:class:`~repro.errors.IasUnavailable`) — are retried with
    exponential backoff charged to the virtual clock.  Verdict failures
    (a quote IAS *rejected*) are never retried.
    """

    def __init__(self, network: Network, address: Address,
                 ias_truststore: Truststore,
                 report_signing_key: EcPublicKey,
                 source_host: str = "verification-manager",
                 rng: Optional[HmacDrbg] = None) -> None:
        self._network = network
        self._address = address
        self._report_signing_key = report_signing_key
        self._source_host = source_host
        self._tls_client = TlsClient(TlsConfig(
            truststore=ias_truststore,
            rng=rng,
            now=network.clock.now_seconds,
        ))

    def verify_quote(self, quote_bytes: bytes,
                     nonce: str = "") -> AttestationVerificationReport:
        """Submit a quote; returns the AVR after checking its signature.

        Raises:
            IasUnavailable: transient IAS failure (5xx/429) after any
                configured retries were exhausted.
            IasError: malformed AVR, bad AVR signature, nonce mismatch,
                or a non-transient error status.
        """
        return self._retrying(
            lambda: self._verify_once(quote_bytes, nonce),
            operation="ias-verify", clock=self._network.clock,
        )

    def _open_connection(self):
        """Dial IAS and complete the TLS handshake; returns the record
        connection (the opener of this client's :class:`ClientStream`)."""
        channel = self._network.connect(self._source_host, self._address)
        return self._tls_client.connect(channel,
                                        server_name=str(self._address))

    def _verify_on(self, stream: ClientStream, quote_bytes: bytes,
                   nonce: str) -> AttestationVerificationReport:
        """One report request/response over ``stream``.

        Split out from :meth:`_verify_once` so a pooled client (one
        persistent connection, many verifications — see
        :class:`repro.core.fleet.PooledIasClient`) reuses the exact same
        wire format, status handling, and AVR checks without paying a
        fresh TCP connect + TLS handshake per quote.
        """
        payload = json.dumps({
            "isvEnclaveQuote": quote_bytes.hex(),
            "nonce": nonce,
        }).encode("utf-8")
        response = stream.exchange_http(HttpRequest(
            "POST", REPORT_PATH,
            headers={"content-type": "application/json"},
            body=payload,
        ))
        if response is None:
            raise IasError("no response from IAS")
        if response.status in TRANSIENT_STATUSES:
            raise IasUnavailable(
                f"IAS returned {response.status}: "
                f"{response.body.decode(errors='replace')}"
            )
        if response.status != 200:
            raise IasError(
                f"IAS returned {response.status}: "
                f"{response.body.decode(errors='replace')}"
            )
        avr = AttestationVerificationReport.from_json(response.body)
        avr.verify(self._report_signing_key)
        if nonce and avr.nonce != nonce:
            raise IasError("AVR nonce mismatch (replayed verdict?)")
        return avr

    def _verify_once(self, quote_bytes: bytes,
                     nonce: str) -> AttestationVerificationReport:
        with ClientStream(self._open_connection) as stream:
            return self._verify_on(stream, quote_bytes, nonce)
