"""Exposition: Prometheus text format + the VM's telemetry endpoint.

:func:`render_prometheus` serializes a registry in the Prometheus
text-based exposition format (version 0.0.4: ``# HELP`` / ``# TYPE``
comments, ``name{label="value"} value`` samples, histogram ``_bucket`` /
``_sum`` / ``_count`` series).  :func:`parse_prometheus` reads the same
format back — used by tests for round-tripping and by the bench harness to
quote scraped numbers.

:class:`TelemetryEndpoint` mounts ``GET /metrics`` and ``GET /traces`` on
the simulated network, mirroring how Floodlight's northbound serves REST:
a plain-HTTP :class:`~repro.net.rest.RestServer` behind a network listener.
The scrape itself flows over the simulated fabric, so it charges network
time like any other traffic — which is why deployments expose it on a
dedicated port and scrape *after* measuring.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Tuple

from repro.errors import ObservabilityError, RestError
from repro.net.address import Address
from repro.net.rest import HttpRequest, HttpResponse, RestServer
from repro.net.simnet import Network
from repro.net.transport import ClientStream, serve_http
from repro.obs.metrics import Telemetry
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

METRICS_PATH = "/metrics"
TRACES_PATH = "/traces"
CONTENT_TYPE_TEXT = "text/plain; version=0.0.4"

#: Labels parsed back from exposition text, as a hashable key.
LabelSet = Tuple[Tuple[str, str], ...]


# --------------------------------------------------------------- rendering


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _unescape_label_value(value: str) -> str:
    out = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
    return "".join(out)


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(names, values, extra: Tuple[Tuple[str, str], ...] = ()
                   ) -> str:
    pairs = [(n, v) for n, v in zip(names, values)]
    pairs.extend(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in pairs
    )
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if isinstance(family, (Counter, Gauge)):
            for values, child in family.children():
                labels = _format_labels(family.labelnames, values)
                lines.append(
                    f"{family.name}{labels} {_format_value(child.value)}"
                )
        elif isinstance(family, Histogram):
            for values, child in family.children():
                for bound, cumulative in child.cumulative_buckets():
                    le = "+Inf" if math.isinf(bound) else _format_value(bound)
                    labels = _format_labels(
                        family.labelnames, values, extra=(("le", le),)
                    )
                    lines.append(f"{family.name}_bucket{labels} {cumulative}")
                labels = _format_labels(family.labelnames, values)
                lines.append(
                    f"{family.name}_sum{labels} {_format_value(child.sum)}"
                )
                lines.append(f"{family.name}_count{labels} {child.count}")
        else:  # pragma: no cover — unreachable with the known kinds
            raise ObservabilityError(f"unknown family kind {family.kind!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------- parsing


def _parse_labels(text: str) -> LabelSet:
    pairs = []
    index = 0
    while index < len(text):
        eq = text.index("=", index)
        name = text[index:eq].strip()
        if text[eq + 1] != '"':
            raise ObservabilityError(f"unquoted label value near {text!r}")
        end = eq + 2
        raw = []
        while text[end] != '"':
            if text[end] == "\\":
                raw.append(text[end:end + 2])
                end += 2
            else:
                raw.append(text[end])
                end += 1
        pairs.append((name, _unescape_label_value("".join(raw))))
        index = end + 1
        if index < len(text) and text[index] == ",":
            index += 1
    # Canonical (sorted) order so lookups don't depend on wire order.
    return tuple(sorted(pairs))


def parse_prometheus(text: str) -> Dict[str, Dict[LabelSet, float]]:
    """Parse exposition text into ``{series_name: {labelset: value}}``.

    Histogram series appear under their ``_bucket`` / ``_sum`` / ``_count``
    names, exactly as exposed.  Label sets are keyed in sorted
    (name-alphabetical) order regardless of wire order.
    """
    out: Dict[str, Dict[LabelSet, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name = line[:line.index("{")]
            rest = line[line.index("{") + 1:]
            labels_text = rest[:rest.rindex("}")]
            value_text = rest[rest.rindex("}") + 1:].strip()
            labels = _parse_labels(labels_text)
        else:
            name, _, value_text = line.partition(" ")
            labels = ()
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        out.setdefault(name, {})[labels] = value
    return out


# ---------------------------------------------------------------- endpoint


class TelemetryEndpoint:
    """Serves ``/metrics`` and ``/traces`` for one telemetry instance.

    Plain HTTP, like Floodlight's default northbound: the scrape target
    lives inside the operator's management network in this model.  (The
    paper's trust argument concerns VNF credentials, not fleet telemetry;
    an HTTPS wrapper would reuse :class:`~repro.tls.TlsServer` unchanged.)
    """

    def __init__(self, telemetry: Telemetry, network: Network,
                 address: Address) -> None:
        self.telemetry = telemetry
        self.address = address
        self._network = network
        self.scrapes_served = 0
        self._rest = RestServer()
        self._rest.route("GET", METRICS_PATH, self._handle_metrics)
        self._rest.route("GET", TRACES_PATH, self._handle_traces)
        serve_http(network, address,
                   lambda request, _stream: self._rest.dispatch(request))

    def close(self) -> None:
        """Stop listening."""
        self._network.stop_listening(self.address)

    # ----------------------------------------------------------- handlers

    def _handle_metrics(self, request: HttpRequest) -> HttpResponse:
        self.scrapes_served += 1
        # Pull-style sync: copy the EC engine's plain-int counters into
        # the registry right before rendering, so scrapes see fresh
        # numbers without the crypto hot paths ever touching a registry.
        self.telemetry.sync_ec_stats()
        body = render_prometheus(self.telemetry.registry).encode("utf-8")
        return HttpResponse(
            200, headers={"content-type": CONTENT_TYPE_TEXT}, body=body
        )

    def _handle_traces(self, request: HttpRequest) -> HttpResponse:
        self.scrapes_served += 1
        body = self.telemetry.tracer.export_json(indent=2).encode("utf-8")
        return HttpResponse(
            200, headers={"content-type": "application/json"}, body=body
        )


def scrape(network: Network, address: Address, path: str = METRICS_PATH,
           source_host: str = "metrics-scraper") -> bytes:
    """One plain-HTTP GET over the simulated network; returns the body.

    Raises:
        RestError: non-200 response or no response at all.
    """
    with ClientStream(lambda: network.connect(source_host, address)) as stream:
        response = stream.exchange_http(HttpRequest("GET", path))
    if response is None:
        raise RestError(f"no response scraping {path}")
    if response.status != 200:
        raise RestError(
            f"scrape of {path} returned {response.status}: "
            f"{response.body.decode(errors='replace')}"
        )
    return response.body


def scrape_text(network: Network, address: Address,
                source_host: str = "metrics-scraper") -> str:
    """``/metrics`` as text."""
    return scrape(network, address, METRICS_PATH, source_host).decode("utf-8")


def scrape_traces(network: Network, address: Address,
                  source_host: str = "metrics-scraper") -> list:
    """``/traces`` parsed back from JSON."""
    body = scrape(network, address, TRACES_PATH, source_host)
    return json.loads(body.decode("utf-8"))
