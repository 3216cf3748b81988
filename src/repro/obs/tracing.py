"""Deterministic span tracing on the virtual clock.

A :class:`Tracer` timestamps spans from a caller-supplied ``now`` callable
— in a deployment that is :meth:`repro.net.clock.VirtualClock.now` — so two
runs with the same seed produce byte-identical trace exports on any
machine.  Span and trace identifiers are sequence numbers, not random, for
the same reason.

Because the simulated network delivers synchronously, one *conversation*
runs on one thread and parent/child nesting falls out of a simple span
stack: whatever span is open when a new one starts becomes its parent.
Under fleet enrollment (:mod:`repro.core.fleet`) many conversations run
concurrently, so the open-span stack is **thread-local** — each worker
nests its own spans — while the shared collections (roots, id counters)
are guarded by a lock.  Span ids stay deterministic in single-threaded
runs; under a worker pool the *assignment* of ids depends on
interleaving but every span tree remains internally consistent.  See
``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.analysis.sanitizer import make_rlock, shared_state
from repro.errors import ObservabilityError

#: Root spans (whole traces) a tracer keeps.  Past this the oldest root
#: is evicted, so trace memory stays bounded however long telemetry runs.
TRACE_ROOT_CAPACITY = 4096


class Span:
    """One timed, attributed region of the workflow."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "end",
                 "attributes", "children", "events")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str], start: float) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.events: List[Dict[str, Any]] = []

    @property
    def duration(self) -> float:
        """Simulated seconds between start and end (0 while open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        """True once the span has ended."""
        return self.end is not None

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one attribute."""
        self.attributes[key] = value

    def add_event(self, name: str, timestamp: Optional[float] = None,
                  **attributes: Any) -> Dict[str, Any]:
        """Attach a point-in-time event (e.g. one retry) to this span.

        Events carry a name, a timestamp (caller-supplied; the retry
        layer passes simulated time) and free-form attributes; they are
        exported inside the span under ``"events"``.
        """
        event: Dict[str, Any] = {"name": name, "timestamp": timestamp}
        event.update(attributes)
        self.events.append(event)
        return event

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (children nested)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "events": [dict(event) for event in self.events],
            "children": [child.to_dict() for child in self.children],
        }

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search of this subtree by span name."""
        if self.name == name:
            return self
        for child in self.children:
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"dur={self.duration:.6f})")


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self._span.attributes.setdefault(
                "error", f"{exc_type.__name__}: {exc}"
            )
        self._tracer.end_span(self._span)
        # Never swallow the exception.


@shared_state("_roots", "_dropped_roots")
class Tracer:
    """Builds span trees from nested instrumented regions.

    It keeps the newest :data:`TRACE_ROOT_CAPACITY` root spans; each one
    evicted to make room is counted in :attr:`dropped_roots`.

    Args:
        now: time source (pass the deployment's ``clock.now`` for
            deterministic traces).
    """

    def __init__(self, now: Callable[[], float]) -> None:
        self._now = now
        self._tls = threading.local()   # per-thread open-span stack
        self._lock = make_rlock("tracer")  # guards roots + counters
        self._roots: Deque[Span] = deque(maxlen=TRACE_ROOT_CAPACITY)
        self._dropped_roots = 0
        self._span_counter = 0
        self._trace_counter = 0
        self._open_count = 0

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # ------------------------------------------------------------- spans

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span; this thread's innermost open span becomes its
        parent."""
        stack = self._stack
        parent = stack[-1] if stack else None
        with self._lock:
            self._span_counter += 1
            span_id = f"span-{self._span_counter:04d}"
            if parent is None:
                self._trace_counter += 1
                trace_id = f"trace-{self._trace_counter:04d}"
                parent_id = None
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
            self._open_count += 1
        span = Span(name, trace_id, span_id, parent_id, self._now())
        span.attributes.update(attributes)
        if parent is None:
            with self._lock:
                if len(self._roots) == self._roots.maxlen:
                    self._dropped_roots += 1
                self._roots.append(span)
        else:
            # The parent span belongs to this thread's stack, so its
            # children list is only ever mutated from this thread.
            parent.children.append(span)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close a span (must be this thread's innermost open one)."""
        stack = self._stack
        if not stack or stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} is not the innermost open span"
            )
        span.end = self._now()
        stack.pop()
        with self._lock:
            self._open_count -= 1

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """``with tracer.span("name", key=value) as span: ...``"""
        return _SpanContext(self, self.start_span(name, **attributes))

    def current_span(self) -> Optional[Span]:
        """The innermost open span, or ``None`` when quiescent.

        The retry layer uses this to attach retry/give-up events to
        whatever step is in flight without threading span handles
        through every client.  Thread-local: a worker sees its own
        innermost span, never a sibling's.
        """
        stack = self._stack
        return stack[-1] if stack else None

    # ------------------------------------------------------------ export

    def roots(self) -> List[Span]:
        """Completed (and still-open) root spans in start order."""
        with self._lock:
            return list(self._roots)

    @property
    def dropped_roots(self) -> int:
        """Root spans evicted, oldest first, to keep the capacity."""
        with self._lock:
            return self._dropped_roots

    def open_depth(self) -> int:
        """How many spans are open across *all* threads (0 quiescent)."""
        with self._lock:
            return self._open_count

    def export(self) -> List[Dict[str, Any]]:
        """The trace forest as JSON-ready dicts (children nested)."""
        return [root.to_dict() for root in self.roots()]

    def export_flat(self) -> List[Dict[str, Any]]:
        """Every span as a flat list (children elided), in span-id order."""
        out: List[Dict[str, Any]] = []

        def visit(span: Span) -> None:
            record = span.to_dict()
            record.pop("children")
            out.append(record)
            for child in span.children:
                visit(child)

        for root in self.roots():
            visit(root)
        out.sort(key=lambda record: record["span_id"])
        return out

    def export_json(self, indent: Optional[int] = None) -> str:
        """The trace forest serialized as JSON."""
        return json.dumps(self.export(), indent=indent, sort_keys=True)

    def find(self, name: str) -> Optional[Span]:
        """First span with ``name`` anywhere in the forest."""
        for root in self.roots():
            hit = root.find(name)
            if hit is not None:
                return hit
        return None

    def reset(self) -> None:
        """Drop all recorded spans and zero :attr:`dropped_roots`.

        Raises:
            ObservabilityError: if spans are still open (on any thread).
        """
        with self._lock:
            if self._open_count:
                raise ObservabilityError(
                    f"cannot reset with {self._open_count} span(s) open"
                )
            self._roots.clear()
            self._dropped_roots = 0
            self._span_counter = 0
            self._trace_counter = 0
