"""The KMS REST front door on the simulated network.

:class:`KmsEndpoint` serves the key-manager API the way the controller's
northbound serves flows: a listener on the simulated fabric feeding an
HTTP parser, with the network's :class:`~repro.net.faults.FaultPlan`
consulted before dispatch (so injected brown-outs surface as 5xx at the
REST surface without touching the service).  Routes::

    GET    /kms/v1/<tenant>/secrets            list secret names
    POST   /kms/v1/<tenant>/secrets/<name>     store (body: {"value": hex})
    GET    /kms/v1/<tenant>/secrets/<name>     fetch
    DELETE /kms/v1/<tenant>/secrets/<name>     delete
    POST   /kms/v1/<tenant>/generate/<name>    generate (body: {"length": n})

Authorization rides in ``authorization: Bearer <hex token>``; the typed
service errors map onto HTTP statuses (401 missing token, 403 denied,
404 unknown namespace/secret, 429 over quota).  With telemetry attached,
every request lands in ``vnf_sgx_kms_requests_total{op,status}`` and a
per-op latency histogram.

:class:`KmsClient` is the tenant-side counterpart: one persistent
channel (reconnecting transparently if it drops), raising the same
typed errors the service does — plus :class:`~repro.errors.
KmsUnavailable` for injected/transient 5xx, which callers may retry.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from repro.errors import (
    ChannelClosed,
    KmsError,
    KmsUnavailable,
    NamespaceError,
    RestError,
    SecretNotFound,
    TenantAuthError,
    TenantQuotaExceeded,
)
from repro.kms.service import KeyManagerService
from repro.net.address import Address
from repro.net.rest import HttpRequest, HttpResponse
from repro.net.simnet import Network
from repro.net.transport import ClientStream, injected_fault, serve_http
from repro.obs.metrics import NULL_TELEMETRY

API_PREFIX = "/kms/v1"


def _json_response(status: int, payload: dict) -> HttpResponse:
    return HttpResponse(
        status,
        headers={"content-type": "application/json"},
        body=json.dumps(payload, sort_keys=True).encode("utf-8"),
    )


def _error_status(exc: KmsError) -> int:
    if isinstance(exc, TenantAuthError):
        return 403
    if isinstance(exc, TenantQuotaExceeded):
        return 429
    if isinstance(exc, (NamespaceError, SecretNotFound)):
        return 404
    return 400


class KmsEndpoint:
    """One KMS REST listener on the simulated network.

    Args:
        service: the key-manager core to front.
        network: the simulated fabric.
        address: where to listen (e.g. ``Address("vm.example.org", 7100)``).
    """

    def __init__(self, service: KeyManagerService, network: Network,
                 address: Address) -> None:
        self.service = service
        self.address = address
        self._network = network
        self._telemetry = NULL_TELEMETRY
        self.requests_served = 0
        serve_http(network, address,
                   lambda request, _stream: self._serve(request))

    def close(self) -> None:
        """Stop listening."""
        self._network.stop_listening(self.address)

    def instrument(self, telemetry) -> None:
        """Attach a :class:`repro.obs.Telemetry` for request counters,
        latency histograms, and spans; also wires the service's
        audit/gauge mirroring."""
        self._telemetry = telemetry
        self.service.instrument(telemetry)

    # ------------------------------------------------------------- serving

    def _serve(self, request: HttpRequest) -> HttpResponse:
        tel = self._telemetry
        self.requests_served += 1
        op = "unroutable"
        # An injected brown-out answers before routing, and counts as
        # an unroutable request.
        response = injected_fault(self._network, self.address,
                                  "key manager")
        if response is None:
            op, respond = self._route(request)
            child = tel.kms_request_seconds.labels(op=op)
            with tel.span(f"kms.{op}", path=request.path), tel.time(child):
                response = respond()
        tel.kms_requests.labels(op=op, status=str(response.status)).inc()
        return response

    # ------------------------------------------------------------- routing

    def _route(self, request: HttpRequest):
        """Resolve ``request`` to ``(op label, thunk)``.

        Paths are parametrized (tenant and secret names are path
        segments), so routing is by hand rather than through
        :class:`~repro.net.rest.RestServer`'s exact-match table.
        """
        segments = request.path.strip("/").split("/")
        method = request.method.upper()
        if len(segments) < 3 or "/" + "/".join(segments[:2]) != API_PREFIX:
            return "unroutable", lambda: HttpResponse(404, body=b"not found")
        tenant = segments[2]
        tail = segments[3:]
        token = self._bearer_token(request)

        if tail == ["secrets"]:
            if method == "GET":
                return "list", lambda: self._do_list(tenant, token)
            return "list", lambda: HttpResponse(
                405, body=b"method not allowed")
        if len(tail) == 2 and tail[0] == "secrets":
            name = tail[1]
            if method == "POST":
                return "store", lambda: self._do_store(
                    tenant, token, name, request.body)
            if method == "GET":
                return "fetch", lambda: self._do_fetch(tenant, token, name)
            if method == "DELETE":
                return "delete", lambda: self._do_delete(tenant, token, name)
            return "secrets", lambda: HttpResponse(
                405, body=b"method not allowed")
        if len(tail) == 2 and tail[0] == "generate":
            if method == "POST":
                return "generate", lambda: self._do_generate(
                    tenant, token, tail[1], request.body)
            return "generate", lambda: HttpResponse(
                405, body=b"method not allowed")
        return "unroutable", lambda: HttpResponse(404, body=b"not found")

    @staticmethod
    def _bearer_token(request: HttpRequest) -> Optional[str]:
        header = request.headers.get("authorization", "")
        scheme, _, credential = header.partition(" ")
        if scheme.lower() != "bearer" or not credential:
            return None
        return credential.strip()

    # ------------------------------------------------------------ handlers

    def _do_list(self, tenant: str, token: Optional[str]) -> HttpResponse:
        if token is None:
            return _json_response(401, {"error": "missing bearer token"})
        try:
            names = self.service.names(tenant, token)
        except KmsError as exc:
            return _json_response(_error_status(exc), {"error": str(exc)})
        return _json_response(200, {"secrets": names})

    def _do_store(self, tenant: str, token: Optional[str], name: str,
                  body: bytes) -> HttpResponse:
        if token is None:
            return _json_response(401, {"error": "missing bearer token"})
        try:
            payload = json.loads(body.decode("utf-8"))
            value = bytes.fromhex(payload["value"])
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            return _json_response(
                400, {"error": f"malformed store body: {exc}"})
        try:
            self.service.store(tenant, token, name, value)
        except KmsError as exc:
            return _json_response(_error_status(exc), {"error": str(exc)})
        return _json_response(201, {"stored": name})

    def _do_fetch(self, tenant: str, token: Optional[str],
                  name: str) -> HttpResponse:
        if token is None:
            return _json_response(401, {"error": "missing bearer token"})
        try:
            value = self.service.fetch(tenant, token, name)
        except KmsError as exc:
            return _json_response(_error_status(exc), {"error": str(exc)})
        return _json_response(200, {"name": name, "value": value.hex()})

    def _do_delete(self, tenant: str, token: Optional[str],
                   name: str) -> HttpResponse:
        if token is None:
            return _json_response(401, {"error": "missing bearer token"})
        try:
            self.service.delete(tenant, token, name)
        except KmsError as exc:
            return _json_response(_error_status(exc), {"error": str(exc)})
        return _json_response(200, {"deleted": name})

    def _do_generate(self, tenant: str, token: Optional[str], name: str,
                     body: bytes) -> HttpResponse:
        if token is None:
            return _json_response(401, {"error": "missing bearer token"})
        length = 32
        if body:
            try:
                payload = json.loads(body.decode("utf-8"))
                length = int(payload.get("length", 32))
            except (ValueError, UnicodeDecodeError) as exc:
                return _json_response(
                    400, {"error": f"malformed generate body: {exc}"})
        try:
            self.service.generate(tenant, token, name, length)
        except KmsError as exc:
            return _json_response(_error_status(exc), {"error": str(exc)})
        return _json_response(201, {"generated": name, "length": length})


class KmsClient:
    """Tenant-side KMS client over one persistent channel (a
    :class:`~repro.net.transport.ClientStream`).

    Args:
        network: the simulated fabric.
        address: the KMS endpoint's address.
        tenant: namespace to operate in.
        token: hex bearer token from :meth:`KeyManagerService.authorize`.
        source_host: host the connection originates from (link profile).
    """

    def __init__(self, network: Network, address: Address, tenant: str,
                 token: str, source_host: str) -> None:
        self._address = address
        self.tenant = tenant
        self._token = token
        self._stream = ClientStream(
            lambda: network.connect(source_host, address))

    def close(self) -> None:
        """Drop the persistent channel."""
        self._stream.close()

    # ------------------------------------------------------------ transport

    def _request(self, method: str, path: str,
                 body: bytes = b"") -> HttpResponse:
        request = HttpRequest(method, path, headers={
            "authorization": f"Bearer {self._token}",
        }, body=body)
        try:
            response = self._stream.exchange_http(request)
        except ChannelClosed:
            # Persistent connection dropped (fault injection or server
            # restart): reconnect once and replay the request.
            response = self._stream.exchange_http(request)
        if response is None:
            raise RestError(f"no response from {self._address}")
        return response

    def _checked(self, response: HttpResponse, expect: int) -> dict:
        if response.status == expect:
            if not response.body:
                return {}
            return json.loads(response.body.decode("utf-8"))
        detail = response.body.decode("utf-8", errors="replace")
        if response.status in (500, 502, 503, 504):
            raise KmsUnavailable(f"{response.status}: {detail}")
        if response.status == 429:
            raise TenantQuotaExceeded(detail)
        if response.status in (401, 403):
            raise TenantAuthError(detail)
        if response.status == 404:
            if "namespace" in detail:
                raise NamespaceError(detail)
            raise SecretNotFound(detail)
        raise KmsError(f"{response.status}: {detail}")

    # ----------------------------------------------------------- operations

    def _secret_path(self, name: str) -> str:
        return f"{API_PREFIX}/{self.tenant}/secrets/{name}"

    def store(self, name: str, value: bytes) -> None:
        """Store (or replace) one secret."""
        body = json.dumps({"value": value.hex()}).encode("utf-8")
        self._checked(
            self._request("POST", self._secret_path(name), body), 201)

    def fetch(self, name: str) -> bytes:
        """Fetch one secret's value."""
        payload = self._checked(
            self._request("GET", self._secret_path(name)), 200)
        return bytes.fromhex(payload["value"])

    def delete(self, name: str) -> None:
        """Delete one secret."""
        self._checked(
            self._request("DELETE", self._secret_path(name)), 200)

    def names(self) -> List[str]:
        """List the namespace's secret names."""
        payload = self._checked(
            self._request("GET", f"{API_PREFIX}/{self.tenant}/secrets"), 200)
        return list(payload["secrets"])

    def generate(self, name: str, length: int = 32) -> None:
        """Server-side generate-and-store (the value never crosses the
        API; read it back with :meth:`fetch` if needed)."""
        body = json.dumps({"length": length}).encode("utf-8")
        self._checked(
            self._request("POST",
                          f"{API_PREFIX}/{self.tenant}/generate/{name}",
                          body), 201)

    def fetch_raw(self, method: str, path: str,
                  body: bytes = b"") -> Tuple[int, bytes]:
        """Escape hatch for tests: one request, raw ``(status, body)``."""
        response = self._request(method, path, body)
        return response.status, response.body
