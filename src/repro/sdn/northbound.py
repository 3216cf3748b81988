"""The controller's northbound REST API in its three security modes.

Floodlight 1.2 "supports three different security modes for the REST API,
non-secure (plain HTTP), HTTPS and trusted HTTPS (with client
authentication)" (paper, section 3).  One endpoint instance serves one
mode; a deployment typically runs the trusted mode only.

Client-certificate validation is pluggable to reproduce the paper's
keystore argument: ``client_validator=None`` validates chains against a CA
truststore (the paper's design); passing a
:meth:`keystore_validator`-built callable reproduces stock Floodlight's
per-client keystore lookup (experiment E3 compares the two).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import FlowError, RestError, SdnError
from repro.net.address import Address
from repro.net.rest import HttpRequest, HttpResponse
from repro.net.simnet import Network
from repro.net.transport import injected_fault, serve_http
from repro.pki.certificate import Certificate
from repro.pki.keystore import Keystore
from repro.sdn.controller import FloodlightController
from repro.sdn.flows import FlowMatch, FlowRule
from repro.tls import TlsConfig, TlsServer

MODE_HTTP = "http"
MODE_HTTPS = "https"
MODE_TRUSTED = "trusted-https"
#: Trusted HTTPS where the client authenticates with a quote-bearing
#: RA-TLS certificate instead of a CA-issued one (see repro.tls.ratls).
MODE_RATLS = "ratls-https"

SUMMARY_PATH = "/wm/core/controller/summary/json"
SWITCHES_PATH = "/wm/core/controller/switches/json"
LINKS_PATH = "/wm/topology/links/json"
DEVICES_PATH = "/wm/device/"
FLOW_PUSHER_PATH = "/wm/staticflowpusher/json"
FLOW_LIST_PATH = "/wm/staticflowpusher/list/all/json"
FABRIC_STATUS_PATH = "/wm/fabric/status/json"


@dataclass(frozen=True)
class AuthContext:
    """Who is calling, as established by the transport."""

    mode: str
    peer_certificate: Optional[Certificate] = None

    @property
    def authenticated(self) -> bool:
        """True when a validated client certificate is present."""
        return self.peer_certificate is not None

    @property
    def principal(self) -> str:
        """A printable caller identity."""
        if self.peer_certificate is not None:
            return self.peer_certificate.subject.common_name
        return "<anonymous>"


def keystore_validator(keystore: Keystore) -> Callable[[Certificate], None]:
    """Stock-Floodlight validation: the exact client certificate must be a
    trusted keystore entry.  Every newly minted credential requires a
    keystore update — the operational cost the paper's CA design removes."""

    def validate(certificate: Certificate) -> None:
        if not keystore.contains_certificate(certificate):
            raise SdnError(
                f"certificate of {certificate.subject} is not in the "
                "controller keystore"
            )

    return validate


class NorthboundEndpoint:
    """One listening northbound endpoint in one security mode."""

    def __init__(self, controller: FloodlightController, network: Network,
                 address: Address, mode: str,
                 tls_config: Optional[TlsConfig] = None) -> None:
        if mode not in (MODE_HTTP, MODE_HTTPS, MODE_TRUSTED, MODE_RATLS):
            raise SdnError(f"unknown northbound mode {mode!r}")
        if mode != MODE_HTTP and tls_config is None:
            raise SdnError(f"mode {mode!r} requires a TLS configuration")
        self.controller = controller
        self.address = address
        self.mode = mode
        self._network = network
        self.requests_served = 0
        self.unauthenticated_writes = 0
        self._tls: Optional[TlsServer] = None
        if mode in (MODE_TRUSTED, MODE_RATLS):
            tls_config.require_client_auth = True
        if mode != MODE_HTTP:
            self._tls = TlsServer(tls_config)
        serve_http(network, address, self._dispatch, tls=self._tls)

    # ------------------------------------------------------------- routing

    def _dispatch(self, request: HttpRequest, stream) -> HttpResponse:
        # The transport establishes the caller: a client certificate
        # validated in the TLS handshake, or nobody over plain HTTP.
        # Every request lands in the network clock's telemetry, in
        # vnf_sgx_northbound_requests_total{mode,method,status}.
        peer = None if self._tls is None else stream.peer_certificate
        response = (
            injected_fault(self._network, self.address, "controller")
            or self._route(request, AuthContext(self.mode, peer))
        )
        self._network.clock.telemetry.northbound_requests.labels(
            mode=self.mode, method=request.method.upper(),
            status=str(response.status),
        ).inc()
        return response

    def _route(self, request: HttpRequest,
               auth: AuthContext) -> HttpResponse:
        self.requests_served += 1
        key = (request.method.upper(), request.path)
        handlers: Dict[Tuple[str, str], Callable] = {
            ("GET", SUMMARY_PATH): self._get_summary,
            ("GET", SWITCHES_PATH): self._get_switches,
            ("GET", LINKS_PATH): self._get_links,
            ("GET", DEVICES_PATH): self._get_devices,
            ("GET", FLOW_LIST_PATH): self._get_flows,
            ("GET", FABRIC_STATUS_PATH): self._get_fabric_status,
            ("POST", FLOW_PUSHER_PATH): self._post_flow,
            ("DELETE", FLOW_PUSHER_PATH): self._delete_flow,
        }
        handler = handlers.get(key)
        if handler is None:
            parametrized = self._match_switch_flows(request)
            if parametrized is None:
                return HttpResponse(404, body=b"not found")
            handler = parametrized
        try:
            return handler(request, auth)
        except (RestError, FlowError, SdnError, ValueError, KeyError) as exc:
            return HttpResponse(400, body=str(exc).encode())
        except Exception as exc:  # noqa: BLE001 — keep the controller up
            return HttpResponse(500, body=f"{type(exc).__name__}: {exc}".encode())

    @staticmethod
    def _json(payload: object, status: int = 200) -> HttpResponse:
        return HttpResponse(
            status,
            headers={"content-type": "application/json"},
            body=json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    def _match_switch_flows(self, request: HttpRequest):
        """Parametrized route: ``GET /wm/core/switch/<dpid>/flow/json``."""
        prefix, suffix = "/wm/core/switch/", "/flow/json"
        if (request.method.upper() != "GET"
                or not request.path.startswith(prefix)
                or not request.path.endswith(suffix)):
            return None
        dpid = request.path[len(prefix):-len(suffix)]
        if not dpid or "/" in dpid:
            return None

        def handler(req: HttpRequest, auth: AuthContext) -> HttpResponse:
            switch = self.controller.topology.switch(dpid)
            return self._json({
                "dpid": dpid,
                "packetsSeen": switch.packets_seen,
                "packetsDropped": switch.packets_dropped,
                "tableMisses": switch.table_misses,
                "flows": [
                    {"name": rule.name, "priority": rule.priority,
                     "match": dict(rule.match.to_dict()),
                     "actions": list(rule.actions),
                     "packetsMatched": rule.packets_matched}
                    for rule in switch.table.rules()
                ],
            })

        return handler

    # ------------------------------------------------------------- handlers

    def _get_summary(self, request: HttpRequest,
                     auth: AuthContext) -> HttpResponse:
        return self._json(self.controller.summary())

    def _get_switches(self, request: HttpRequest,
                      auth: AuthContext) -> HttpResponse:
        return self._json([
            {"dpid": sw.dpid, "flows": len(sw.table),
             "packets": sw.packets_seen}
            for sw in self.controller.topology.switches()
        ])

    def _get_links(self, request: HttpRequest,
                   auth: AuthContext) -> HttpResponse:
        return self._json([
            {"src": a, "dst": b, "ports": ports}
            for a, b, ports in self.controller.topology.links()
        ])

    def _get_devices(self, request: HttpRequest,
                     auth: AuthContext) -> HttpResponse:
        topology = self.controller.topology
        return self._json([
            {"host": host,
             "attachedTo": {"dpid": topology.attachment_point(host)[0],
                            "port": topology.attachment_point(host)[1]}}
            for host in topology.hosts()
        ])

    def _get_fabric_status(self, request: HttpRequest,
                           auth: AuthContext) -> HttpResponse:
        if self.controller.fabric_status is None:
            return HttpResponse(404,
                                body=b"controller is not part of a fabric")
        return self._json(self.controller.fabric_status())

    def _get_flows(self, request: HttpRequest,
                   auth: AuthContext) -> HttpResponse:
        return self._json({
            dpid: [
                {"name": rule.name, "priority": rule.priority,
                 "match": {k: v for k, v in rule.match.to_dict().items()},
                 "actions": list(rule.actions),
                 "packetsMatched": rule.packets_matched}
                for rule in rules
            ]
            for dpid, rules in self.controller.static_flows().items()
        })

    def _post_flow(self, request: HttpRequest,
                   auth: AuthContext) -> HttpResponse:
        if not auth.authenticated:
            # HTTP/HTTPS modes accept writes from anyone — the exposure the
            # paper's trusted mode closes.  Record it for the experiments.
            self.unauthenticated_writes += 1
        body = json.loads(request.body.decode("utf-8"))
        rule = FlowRule(
            name=body["name"],
            match=FlowMatch.from_dict(body.get("match", {})),
            actions=tuple(body["actions"].split(",")),
            priority=int(body.get("priority", 100)),
        )
        self.controller.push_flow(body["switch"], rule)
        return self._json({"status": "Entry pushed",
                           "by": auth.principal})

    def _delete_flow(self, request: HttpRequest,
                     auth: AuthContext) -> HttpResponse:
        if not auth.authenticated:
            self.unauthenticated_writes += 1
        body = json.loads(request.body.decode("utf-8"))
        self.controller.delete_flow(body["name"])
        return self._json({"status": "Entry deleted",
                           "by": auth.principal})
