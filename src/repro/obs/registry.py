"""The metrics registry: Counters, Gauges and Histograms with labels.

Modeled on the Prometheus client-library data model: a *metric family* has
a name, a help string and a fixed set of label names; each distinct
combination of label values materialises one *child* holding the actual
numbers.  There is no process-wide registry: each
:class:`~repro.obs.Telemetry` takes the registry its caller built (a
deployment builds one of its own), so two deployments in one process
never share a metric.

Observing a metric never touches the virtual clock — telemetry watches the
simulation, it does not participate in it — so enabling instrumentation
cannot change simulated timings.

Thread-safety: the registry's get-or-create, each family's child
creation, and every child mutation run under locks, so concurrent fleet
enrollments (:mod:`repro.core.fleet`) can instrument freely: two threads
racing to create the same metric (or the same labelled child) converge
on a single instance instead of silently dropping one of them, and
counter/histogram updates never lose increments.  See
``docs/CONCURRENCY.md`` for the lock ordering rules (registry lock >
family lock > child lock; no call path takes them in reverse).
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import make_lock, make_rlock
from repro.errors import ObservabilityError

TYPE_COUNTER = "counter"
TYPE_GAUGE = "gauge"
TYPE_HISTOGRAM = "histogram"

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets, in (simulated) seconds.  The simulation's
#: interesting range spans tens of microseconds (loopback round trips) to
#: tens of milliseconds (WAN attestation), hence the low-end density.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5,
)


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for name in names:
        if not _LABEL_NAME_RE.match(name):
            raise ObservabilityError(f"invalid label name {name!r}")
        if name == "le":
            raise ObservabilityError(
                "label name 'le' is reserved for histogram buckets"
            )
    if len(set(names)) != len(names):
        raise ObservabilityError(f"duplicate label names in {names!r}")
    return names


class MetricFamily:
    """Common behaviour of the three metric kinds."""

    kind = "abstract"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = _validate_labelnames(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._family_lock = make_rlock("family")

    # ----------------------------------------------------------- children

    def _make_child(self):  # pragma: no cover — overridden
        raise NotImplementedError

    def labels(self, **labels: str):
        """The child for one combination of label values (creating it on
        first use)."""
        if set(labels) != set(self.labelnames):
            raise ObservabilityError(
                f"{self.name}: got labels {sorted(labels)}, "
                f"expected {sorted(self.labelnames)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        # Atomic get-or-create: the naive check-then-act version loses a
        # child when two threads race on a new label combination (each
        # observing into its own orphan).
        with self._family_lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _unlabelled(self):
        """The single child of a label-less family."""
        if self.labelnames:
            raise ObservabilityError(
                f"{self.name} has labels {self.labelnames}; use .labels()"
            )
        return self.labels()

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label_values, child)`` pairs in insertion order."""
        with self._family_lock:
            return list(self._children.items())

    def reset(self) -> None:
        """Drop all children (counts return to zero)."""
        with self._family_lock:
            self._children.clear()


# --------------------------------------------------------------------------
# Counter


class CounterChild:
    """One monotonically increasing count (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = make_lock("child")

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ObservabilityError("counters can only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value


class Counter(MetricFamily):
    """A monotonically increasing metric family."""

    kind = TYPE_COUNTER

    def _make_child(self) -> CounterChild:
        return CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less child."""
        self._unlabelled().inc(amount)

    @property
    def value(self) -> float:
        """Value of the label-less child."""
        return self._unlabelled().value

    def total(self) -> float:
        """Sum over every child (any labels)."""
        return sum(child.value for _, child in self.children())


# --------------------------------------------------------------------------
# Gauge


class GaugeChild:
    """One instantaneous value (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = make_lock("child")

    def set(self, value: float) -> None:
        """Set the gauge."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Gauge(MetricFamily):
    """A settable metric family."""

    kind = TYPE_GAUGE

    def _make_child(self) -> GaugeChild:
        return GaugeChild()

    def set(self, value: float) -> None:
        """Set the label-less child."""
        self._unlabelled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less child."""
        self._unlabelled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the label-less child."""
        self._unlabelled().dec(amount)

    @property
    def value(self) -> float:
        """Value of the label-less child."""
        return self._unlabelled().value


# --------------------------------------------------------------------------
# Histogram


class HistogramChild:
    """Bucketed observations: a count, a sum and one count per bucket
    (thread-safe).

    Like a wire-efficient production client it keeps no raw samples, so
    its memory stays constant however many observations it takes.
    Benchmarks that want exact percentiles take them with
    :func:`repro.bench.summarize` over their own samples.
    """

    __slots__ = ("_buckets", "_bucket_counts", "_count", "_sum", "_lock")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self._buckets = buckets
        self._bucket_counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self._count = 0
        self._sum = 0.0
        self._lock = make_rlock("child")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            for index, bound in enumerate(self._buckets):
                if value <= bound:
                    self._bucket_counts[index] += 1
                    return
            self._bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observations."""
        return self._sum

    @property
    def buckets(self) -> Tuple[float, ...]:
        """Upper bounds (exclusive of the implicit ``+Inf``)."""
        return self._buckets

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        with self._lock:
            out: List[Tuple[float, int]] = []
            running = 0
            for bound, count in zip(self._buckets, self._bucket_counts):
                running += count
                out.append((bound, running))
            out.append((math.inf, running + self._bucket_counts[-1]))
            return out


class Histogram(MetricFamily):
    """A distribution metric family with configurable buckets."""

    kind = TYPE_HISTOGRAM

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Iterable[float]] = None) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(buckets)) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise ObservabilityError("histogram needs at least one bucket")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ObservabilityError("histogram buckets must be increasing")
        if any(math.isinf(b) for b in bounds):
            raise ObservabilityError("+Inf bucket is implicit; do not pass it")
        self.buckets = bounds

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Observe into the label-less child."""
        self._unlabelled().observe(value)

    @property
    def count(self) -> int:
        """Observation count of the label-less child."""
        return self._unlabelled().count

    def total_count(self) -> int:
        """Observations summed over every child."""
        return sum(child.count for _, child in self.children())


# --------------------------------------------------------------------------
# Registry


class MetricsRegistry:
    """Creates, deduplicates and collects metric families."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = make_rlock("registry")

    # ---------------------------------------------------------- factories

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> MetricFamily:
        # Atomic under the registry lock: the check-then-act version was
        # racy — two threads creating the same metric each registered
        # their own family, and whichever insert lost the race kept
        # feeding a family that collect() would never see.
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ObservabilityError(
                        f"{name} already registered as a {existing.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ObservabilityError(
                        f"{name} already registered with labels "
                        f"{existing.labelnames}, not {tuple(labelnames)}"
                    )
                return existing
            family = cls(name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a counter family."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge family."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        """Get or create a histogram family."""
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    # --------------------------------------------------------- collection

    def get(self, name: str) -> MetricFamily:
        """A registered family by name.

        Raises:
            ObservabilityError: unknown metric.
        """
        with self._lock:
            try:
                return self._families[name]
            except KeyError as exc:
                raise ObservabilityError(
                    f"no metric named {name!r}"
                ) from exc

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def collect(self) -> List[MetricFamily]:
        """All families, sorted by name (exposition order)."""
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def reset(self) -> None:
        """Zero every family (registrations survive, children are dropped)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family.reset()

    def unregister(self, name: str) -> None:
        """Remove a family entirely."""
        with self._lock:
            self._families.pop(name, None)
