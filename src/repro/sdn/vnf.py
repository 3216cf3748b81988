"""VNF-side REST access to the controller.

:class:`VnfRestClient` is the *baseline* client: it holds its credentials
in ordinary process memory and runs TLS outside any enclave — exactly what
the paper argues against.  The protected variant, where the handshake and
session keys live inside an SGX enclave, is
:class:`repro.core.credential_enclave.EnclaveBackedClient`; both expose the
same ``request`` API so experiments can swap them.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.crypto.keys import EcPrivateKey
from repro.crypto.rng import HmacDrbg
from repro.errors import ControllerUnavailable, NetError, SdnError
from repro.net.address import Address
from repro.net.rest import TRANSIENT_STATUSES, HttpRequest, HttpResponse
from repro.net.retry import retry_call
from repro.net.simnet import Network
from repro.net.transport import ClientStream
from repro.pki.certificate import Certificate
from repro.pki.truststore import Truststore
from repro.sdn.northbound import (
    FLOW_LIST_PATH,
    FLOW_PUSHER_PATH,
    MODE_HTTP,
    MODE_HTTPS,
    MODE_TRUSTED,
    SUMMARY_PATH,
)
from repro.tls import TlsClient, TlsConfig


class ControllerOps:
    """Controller operations shared by every client flavour.

    Subclasses provide ``request_json(method, path, payload)``; the
    baseline client implements it over plain/TLS transport and the
    enclave-backed client over ECALLs.
    """

    def request_json(self, method: str, path: str,
                     payload: Optional[dict] = None) -> dict:
        raise NotImplementedError

    def summary(self) -> dict:
        """Controller summary stats."""
        return self.request_json("GET", SUMMARY_PATH)

    def push_flow(self, switch: str, name: str, match: Dict[str, object],
                  actions: str, priority: int = 100) -> dict:
        """Install a static flow rule."""
        return self.request_json("POST", FLOW_PUSHER_PATH, {
            "switch": switch, "name": name, "match": match,
            "actions": actions, "priority": priority,
        })

    def delete_flow(self, name: str) -> dict:
        """Remove a static flow rule."""
        return self.request_json("DELETE", FLOW_PUSHER_PATH, {"name": name})

    def list_flows(self) -> dict:
        """All static flows, grouped by switch."""
        return self.request_json("GET", FLOW_LIST_PATH)


class VnfRestClient(ControllerOps):
    """A REST client for one northbound endpoint, in any security mode.

    Each request follows the retry policy on the network's clock at the
    moment it runs (see :mod:`repro.net.retry`): under a policy with more
    than one attempt, transient transport failures (refused connects,
    mid-stream drops) and transient controller statuses (502/503/504/429,
    surfaced as :class:`~repro.errors.ControllerUnavailable`) are retried
    with backoff; each re-attempt re-establishes the connection —
    including a fresh TLS handshake in the HTTPS modes.
    """

    def __init__(self, network: Network, controller_address: Address,
                 source_host: str, mode: str,
                 truststore: Optional[Truststore] = None,
                 client_chain: Optional[List[Certificate]] = None,
                 client_key: Optional[EcPrivateKey] = None, *,
                 rng: HmacDrbg) -> None:
        if mode not in (MODE_HTTP, MODE_HTTPS, MODE_TRUSTED):
            raise SdnError(f"unknown mode {mode!r}")
        if mode != MODE_HTTP and truststore is None:
            raise SdnError(f"mode {mode!r} requires a truststore")
        self._network = network
        self._address = controller_address
        self._source_host = source_host
        self.mode = mode
        self._stream = ClientStream(self._open)
        self._tls_client: Optional[TlsClient] = None
        if mode != MODE_HTTP:
            self._tls_client = TlsClient(TlsConfig(
                certificate_chain=list(client_chain or []),
                private_key=client_key,
                truststore=truststore,
                rng=rng,
            ))

    # ----------------------------------------------------------- transport

    def _open(self):
        channel = self._network.connect(self._source_host, self._address)
        if self._tls_client is None:
            return channel
        return self._tls_client.connect(channel,
                                        server_name=str(self._address))

    def close(self) -> None:
        """Close the persistent connection (if any)."""
        self._stream.close()

    # ------------------------------------------------------------- requests

    def request(self, method: str, path: str,
                body: bytes = b"") -> HttpResponse:
        """One request/response exchange over the persistent connection.

        Under :data:`~repro.net.retry.NO_RETRY` this returns whatever
        the controller answered, any status.  Under a policy that
        retries, transient statuses are raised as
        :class:`~repro.errors.ControllerUnavailable` and retried; on
        give-up that exception propagates.
        """
        request = HttpRequest(method, path, body=body)
        return retry_call(
            lambda: self._request_once(request),
            clock=self._network.clock, operation="northbound",
            retryable=(NetError, ControllerUnavailable),
        )

    def _request_once(self, request: HttpRequest) -> HttpResponse:
        # A transport fault drops the stream, so the next attempt
        # reconnects (and re-handshakes).
        response = self._stream.exchange_http(request)
        if response is None:
            self.close()
            raise SdnError("controller returned no response")
        if (self._network.clock.retry_policy.max_attempts > 1
                and response.status in TRANSIENT_STATUSES):
            raise ControllerUnavailable(
                f"controller returned {response.status}: "
                f"{response.body.decode(errors='replace')}"
            )
        return response

    def request_json(self, method: str, path: str,
                     payload: Optional[dict] = None) -> dict:
        """JSON request/response convenience wrapper."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        response = self.request(method, path, body)
        if response.status != 200:
            raise SdnError(
                f"{method} {path} -> {response.status}: "
                f"{response.body.decode(errors='replace')}"
            )
        return json.loads(response.body.decode("utf-8"))
