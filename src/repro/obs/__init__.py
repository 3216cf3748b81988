"""Observability: metrics, tracing and exposition for the deployment.

The subsystem has three layers (see ``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.registry` — Prometheus-style :class:`Counter`,
  :class:`Gauge` and :class:`Histogram` families with labels and
  configurable buckets (a histogram keeps counts, never raw samples),
  collected by a :class:`MetricsRegistry` (each deployment builds its
  own; there is no process-wide one).
- :mod:`repro.obs.tracing` — a :class:`Tracer` producing deterministic
  span trees timestamped from the virtual clock.
- :mod:`repro.obs.exposition` — the Prometheus text renderer/parser and
  the :class:`TelemetryEndpoint` serving ``/metrics`` and ``/traces`` on
  the simulated network.

:class:`~repro.obs.metrics.Telemetry` ties the three together.  Each
deployment's lives on its virtual clock (``clock.telemetry``), and every
emitting component reads it from a clock it already holds.  Telemetry is
opt-in: the clock holds :data:`~repro.obs.metrics.NULL_TELEMETRY`, which
records nothing, until
:meth:`repro.core.workflow.Deployment.enable_telemetry` sets a real one,
and observation never advances the virtual clock.
"""

from repro.obs.exposition import (
    METRICS_PATH,
    TRACES_PATH,
    TelemetryEndpoint,
    parse_prometheus,
    render_prometheus,
    scrape,
    scrape_text,
    scrape_traces,
)
from repro.obs.metrics import NULL_TELEMETRY, Telemetry
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "NULL_TELEMETRY",
    "Telemetry",
    "TelemetryEndpoint",
    "METRICS_PATH",
    "TRACES_PATH",
    "render_prometheus",
    "parse_prometheus",
    "scrape",
    "scrape_text",
    "scrape_traces",
]
