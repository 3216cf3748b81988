"""RACE: the runtime race detector and lock-discipline sanitizer.

The static lock-order checker (:mod:`repro.analysis.lock_order`) proves
nesting *order* from the code's lock constructions, but it cannot see an
access to shared state that holds *no* lock at all, nor a nesting hidden
behind a callback or a simulated-network exchange.  This module closes
both gaps the way Eraser (Savage et al., SOSP'97) and TSan do for native
code — at runtime, opt-in, zero-cost when off:

* :func:`make_lock` / :func:`make_rlock` construct plain
  ``threading.Lock``/``RLock`` objects unless sanitization is enabled
  (``REPRO_SANITIZE=1`` in the environment, or an active
  :func:`sanitize` context), in which case they return
  :class:`TrackedLock`/:class:`TrackedRLock` wrappers that record
  per-thread locksets, acquisition sites, and a vector-clock
  happens-before order (lock release/acquire, ``Thread.start``/``join``
  edges).
* :func:`shared_state` / :func:`register_shared` annotate the classes
  whose attributes the documented locks guard.  While a sanitizer is
  active the classes' ``__getattribute__``/``__setattr__`` are patched
  and every access runs the Eraser lockset state machine
  (virgin → exclusive → shared/shared-modified), refined with
  happens-before: ownership transfers along start/join/lock edges, and
  a candidate lockset that empties *with* a happens-before edge is a
  phase change, not a race.  A candidate lockset that empties with no
  such edge is **RACE001**, reported with both access stacks.
* At teardown the observed acquisition graph is validated against the
  encoded chains from ``docs/CONCURRENCY.md`` by re-using the static
  checker's edge/cycle rules (**RACE002** wraps dynamic LOCK001–005 —
  orders the AST walker cannot see through indirection).  Each tracked
  lock carries the domain it was constructed with, so no site table is
  needed at runtime.

Findings flow through the ordinary :class:`~repro.analysis.findings.
Finding` machinery; ``repro lint --sanitizer-report FILE`` applies the
baseline and the exit-code convention to a report written by the pytest
plugin (:mod:`repro.analysis.sanitizer_plugin`).  See
``docs/ANALYSIS.md`` for the rule catalogue and ``docs/CONCURRENCY.md``
for the lock model.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type,
)

__all__ = [
    "SANITIZER_RULES",
    "RaceReport",
    "Sanitizer",
    "TrackedLock",
    "TrackedRLock",
    "current_sanitizer",
    "load_report",
    "make_lock",
    "make_rlock",
    "register_shared",
    "sanitize",
    "shared_state",
]

#: Rule catalogue (merged into ``repro lint --list-rules`` by the runner).
SANITIZER_RULES: Dict[str, str] = {
    "RACE001": ("shared state accessed with an empty candidate lockset "
                "and no happens-before edge (Eraser)"),
    "RACE002": ("observed runtime lock acquisition violates the "
                "documented order (dynamic LOCK001-005)"),
}

ENV_SWITCH = "REPRO_SANITIZE"
REPORT_ENV = "REPRO_SANITIZE_REPORT"

#: Frames kept per captured access/acquisition stack.
STACK_LIMIT = 10

_THIS_FILE = os.path.abspath(__file__)
_PKG_ROOT = os.path.dirname(os.path.dirname(_THIS_FILE))  # .../src/repro

# --------------------------------------------------------------------------
# Global sanitizer state
# --------------------------------------------------------------------------

#: One lock guards *all* sanitizer bookkeeping.  Record paths take it and
#: nothing else, so it can never participate in a deadlock with the locks
#: it observes.
_STATE_LOCK = threading.Lock()

_ACTIVE: Optional["Sanitizer"] = None
_ACTIVE_STACK: List["Sanitizer"] = []

_lock_uids = itertools.count(1)
_thread_uids = itertools.count(1)
#: Stable small ints per Thread object (``threading.get_ident`` recycles).
_thread_ids: "weakref.WeakKeyDictionary[threading.Thread, int]" = (
    weakref.WeakKeyDictionary())

#: class -> {attr: mutating?}; populated by @shared_state at import time.
_REGISTRY: Dict[type, Dict[str, bool]] = {}
#: classes currently carrying patched dunders -> (had_get, had_set, originals)
_INSTRUMENTED: Dict[type, Tuple[Optional[Any], Optional[Any]]] = {}

_orig_thread_start = None
_orig_thread_join = None
_fork_hook_installed = False


def current_sanitizer() -> Optional["Sanitizer"]:
    """The innermost active sanitizer, or ``None``."""
    return _ACTIVE


def _env_enabled() -> bool:
    return os.environ.get(ENV_SWITCH, "") == "1"


def _tracking_enabled() -> bool:
    return _ACTIVE is not None or _env_enabled()


def _thread_uid() -> int:
    """Stable id of the calling thread (callers hold ``_STATE_LOCK``)."""
    thread = threading.current_thread()
    uid = _thread_ids.get(thread)
    if uid is None:
        uid = next(_thread_uids)
        _thread_ids[thread] = uid
    return uid


def _capture_stack(skip: int = 2) -> Tuple[Tuple[str, int, str], ...]:
    """A cheap ``(filename, lineno, function)`` stack snapshot."""
    frames: List[Tuple[str, int, str]] = []
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow stacks
        return ()
    while frame is not None and len(frames) < STACK_LIMIT:
        code = frame.f_code
        frames.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return tuple(frames)


def _relpath_of(filename: str) -> Optional[str]:
    """``src/repro``-relative path of a frame filename, or ``None``."""
    abspath = os.path.abspath(filename)
    if not abspath.startswith(_PKG_ROOT + os.sep):
        return None
    rel = os.path.relpath(abspath, _PKG_ROOT)
    return rel.replace(os.sep, "/")


def _user_frame(skip: int = 2) -> Tuple[Optional[str], int, str]:
    """First frame below the sanitizer itself: ``(relpath?, line, func)``.

    ``relpath`` is ``None`` when the frame lives outside ``src/repro``
    (e.g. a test body acquiring a tracked lock directly).
    """
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow stacks
        return None, 0, "<unknown>"
    while frame is not None:
        filename = os.path.abspath(frame.f_code.co_filename)
        if filename != _THIS_FILE:
            return (_relpath_of(filename), frame.f_lineno,
                    frame.f_code.co_name)
        frame = frame.f_back
    return None, 0, "<unknown>"  # pragma: no cover


def _vc_join(target: Dict[int, int], other: Dict[int, int]) -> None:
    for tid, clock in other.items():
        if clock > target.get(tid, 0):
            target[tid] = clock


def _vc_leq(a: Dict[int, int], b: Dict[int, int]) -> bool:
    """Every event in ``a`` happened-before the point ``b``."""
    return all(clock <= b.get(tid, 0) for tid, clock in a.items())


# --------------------------------------------------------------------------
# Tracked locks + construction factories
# --------------------------------------------------------------------------

class TrackedLock:
    """A ``threading.Lock`` that reports to the active sanitizer.

    Constructed only when sanitization is enabled (see :func:`make_lock`);
    when no sanitizer is *active* each operation is one ``is None`` check
    away from the plain lock.
    """

    _reentrant = False

    def __init__(self, domain: str) -> None:
        self._inner = self._make_inner()
        self.domain = domain
        self.uid = next(_lock_uids)
        #: Construction site — the location an observed edge falls back
        #: to when acquired from outside ``src/repro`` (a test body).
        relpath, line, _func = _user_frame(skip=2)
        self.site_relpath = relpath
        self.site_line = line
        #: Vector clock stored at release, joined at acquire (guarded by
        #: the sanitizer state lock, not by this lock itself).
        self.vc: Dict[int, int] = {}

    @staticmethod
    def _make_inner():
        return threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            sanitizer = _ACTIVE
            if sanitizer is not None:
                sanitizer._on_acquire(self)
        return got

    def release(self) -> None:
        sanitizer = _ACTIVE
        if sanitizer is not None:
            sanitizer._on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} domain={self.domain!r} "
                f"site={self.site_relpath}:{self.site_line}>")


class TrackedRLock(TrackedLock):
    """Re-entrant flavour; recursion depth is tracked per holder."""

    _reentrant = True

    @staticmethod
    def _make_inner():
        return threading.RLock()

    def locked(self) -> bool:  # pragma: no cover - parity with RLock
        raise AttributeError("RLock has no locked()")


def make_lock(domain: str):
    """A ``threading.Lock`` — tracked under ``domain`` when sanitizing."""
    if _tracking_enabled():
        _install_fork_hook()
        return TrackedLock(domain)
    return threading.Lock()


def make_rlock(domain: str):
    """A ``threading.RLock`` — tracked under ``domain`` when sanitizing."""
    if _tracking_enabled():
        _install_fork_hook()
        return TrackedRLock(domain)
    return threading.RLock()


def _install_fork_hook() -> None:
    """Reset sanitizer state in forked children.

    Any fork (a test harness, a subprocess helper) may happen while
    another thread holds a lock.  A child must not inherit a held
    ``_STATE_LOCK`` or an active sanitizer: detection is meaningless
    there and a poisoned state lock would hang the first tracked
    operation.
    """
    global _fork_hook_installed
    if _fork_hook_installed or not hasattr(os, "register_at_fork"):
        return
    _fork_hook_installed = True

    def _in_child() -> None:
        global _STATE_LOCK, _ACTIVE
        _STATE_LOCK = threading.Lock()
        _ACTIVE_STACK.clear()
        _ACTIVE = None

    os.register_at_fork(after_in_child=_in_child)


# --------------------------------------------------------------------------
# Shared-state registration + class instrumentation
# --------------------------------------------------------------------------

def register_shared(cls: Type, attrs: Sequence[str],
                    mutating: bool = True) -> Type:
    """Track ``attrs`` of ``cls`` under the Eraser state machine.

    ``mutating=True`` (the default, and what :func:`shared_state` uses)
    treats *every* access as a write: the guarded attributes are
    containers and counters, where reading is almost always half of a
    check-then-act.  Attributes named in ``lock_order.ATTR_HINTS`` are
    additionally tracked with true read/write semantics on every
    registered class (a reference slot that is only ever read cannot
    race).
    """
    spec = _REGISTRY.setdefault(cls, {})
    for attr in attrs:
        spec[attr] = mutating
    if _ACTIVE is not None:
        _instrument_class(cls)
    return cls


def shared_state(*attrs: str):
    """Class decorator: ``@shared_state("_entries", "_order")``."""
    def decorate(cls: Type) -> Type:
        return register_shared(cls, attrs)
    return decorate


def _instrument_class(cls: Type) -> None:
    if cls in _INSTRUMENTED:
        return
    from repro.analysis.lock_order import ATTR_HINTS

    tracked: Dict[str, bool] = {name: False for name in ATTR_HINTS}
    tracked.update(_REGISTRY[cls])

    original_get = cls.__dict__.get("__getattribute__")
    original_set = cls.__dict__.get("__setattr__")
    real_get = cls.__getattribute__
    real_set = cls.__setattr__

    def __getattribute__(self: object, name: str) -> Any:
        if name in tracked:
            sanitizer = _ACTIVE
            if sanitizer is not None:
                sanitizer._record_access(self, name,
                                         is_write=tracked[name])
        return real_get(self, name)

    def __setattr__(self: object, name: str, value: Any) -> None:
        if name in tracked:
            sanitizer = _ACTIVE
            if sanitizer is not None:
                sanitizer._record_access(self, name, is_write=True)
        real_set(self, name, value)

    cls.__getattribute__ = __getattribute__  # type: ignore[assignment]
    cls.__setattr__ = __setattr__  # type: ignore[assignment]
    _INSTRUMENTED[cls] = (original_get, original_set)


def _deinstrument_all() -> None:
    for cls, (original_get, original_set) in list(_INSTRUMENTED.items()):
        if original_get is None:
            delattr(cls, "__getattribute__")
        else:  # pragma: no cover - no registered class overrides these
            cls.__getattribute__ = original_get
        if original_set is None:
            delattr(cls, "__setattr__")
        else:  # pragma: no cover
            cls.__setattr__ = original_set
    _INSTRUMENTED.clear()


_CLS_RELPATH_CACHE: Dict[type, str] = {}


def _class_relpath(cls: type) -> str:
    relpath = _CLS_RELPATH_CACHE.get(cls)
    if relpath is None:
        module = cls.__module__ or ""
        if module.startswith("repro."):
            relpath = module[len("repro."):].replace(".", "/") + ".py"
        else:  # pragma: no cover - fixture classes in tests
            relpath = "analysis/sanitizer.py"
        _CLS_RELPATH_CACHE[cls] = relpath
    return relpath


# --------------------------------------------------------------------------
# Per-run records
# --------------------------------------------------------------------------

@dataclass
class _Held:
    lock: TrackedLock
    depth: int = 1


@dataclass
class _EdgeObs:
    """One observed ``outer held while inner acquired`` pair."""

    outer: str
    inner: str
    relpath: str
    line: int
    symbol: str
    stack: Tuple[Tuple[str, int, str], ...]
    count: int = 1


#: Eraser states for one tracked attribute slot.
_EXCLUSIVE, _SHARED, _SHARED_MOD, _RACED = range(4)


@dataclass
class _VarState:
    cls_name: str
    attr: str
    relpath: str
    state: int
    owner: int
    access_vc: Dict[int, int] = field(default_factory=dict)
    write_vc: Dict[int, int] = field(default_factory=dict)
    candidates: Optional[Set[int]] = None
    last_stack: Tuple[Tuple[str, int, str], ...] = ()
    last_tid: int = 0
    last_domains: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RaceReport:
    """A RACE001 hit with both access stacks attached."""

    cls_name: str
    attr: str
    relpath: str
    first_tid: int
    second_tid: int
    first_stack: Tuple[Tuple[str, int, str], ...]
    second_stack: Tuple[Tuple[str, int, str], ...]
    first_locks: Tuple[str, ...]
    second_locks: Tuple[str, ...]

    def describe(self) -> str:
        lines = [f"race on {self.cls_name}.{self.attr} "
                 f"({self.relpath}): thread#{self.first_tid} "
                 f"(locks: {list(self.first_locks) or 'none'}) vs "
                 f"thread#{self.second_tid} "
                 f"(locks: {list(self.second_locks) or 'none'})"]
        for title, stack in (("first access", self.first_stack),
                             ("second access", self.second_stack)):
            lines.append(f"  {title}:")
            for filename, lineno, func in stack:
                lines.append(f"    {filename}:{lineno} in {func}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# The sanitizer
# --------------------------------------------------------------------------

class Sanitizer:
    """One sanitization run: recording, the state machine, teardown checks.

    ``check_order=False`` silences the teardown order pass, so tests of
    the race machinery see only RACE001; production use (the pytest
    plugin) runs with the default, i.e. against the live ``lock_order``
    tables.
    """

    def __init__(self, *, check_order: bool = True) -> None:
        self.check_order = check_order
        self.races: List[RaceReport] = []
        self._race_keys: Set[Tuple[str, str]] = set()
        self._vc: Dict[int, Dict[int, int]] = {}
        self._locksets: Dict[int, List[_Held]] = {}
        self._vars: Dict[Tuple[int, str], _VarState] = {}
        self._var_refs: Dict[int, weakref.ref] = {}
        self._dead_ids: List[int] = []  # filled by GC callbacks, lock-free
        self._edges: Dict[Tuple[str, str], _EdgeObs] = {}
        self._snapshots: "weakref.WeakKeyDictionary[threading.Thread, Dict[int, int]]" = (
            weakref.WeakKeyDictionary())
        self._active = False

    # -- lifecycle ---------------------------------------------------------

    def activate(self) -> "Sanitizer":
        global _ACTIVE
        if self._active:
            raise RuntimeError("sanitizer already active")
        with _STATE_LOCK:
            _ACTIVE_STACK.append(self)
            _ACTIVE = self
            self._active = True
            if len(_ACTIVE_STACK) == 1:
                _install_thread_hooks()
            for cls in list(_REGISTRY):
                _instrument_class(cls)
        _install_fork_hook()
        return self

    def deactivate(self) -> None:
        global _ACTIVE
        if not self._active:
            return
        with _STATE_LOCK:
            self._active = False
            _ACTIVE_STACK.remove(self)
            _ACTIVE = _ACTIVE_STACK[-1] if _ACTIVE_STACK else None
            if not _ACTIVE_STACK:
                _remove_thread_hooks()
                _deinstrument_all()

    # -- vector clocks -----------------------------------------------------

    def _vc_current(self) -> Tuple[int, Dict[int, int]]:
        """(thread uid, its vector clock); callers hold ``_STATE_LOCK``."""
        tid = _thread_uid()
        vc = self._vc.get(tid)
        if vc is None:
            snapshot = self._snapshots.pop(threading.current_thread(), None)
            vc = dict(snapshot) if snapshot else {}
            vc[tid] = vc.get(tid, 0) + 1
            self._vc[tid] = vc
        return tid, vc

    def _on_thread_start(self, thread: threading.Thread) -> None:
        with _STATE_LOCK:
            tid, vc = self._vc_current()
            self._snapshots[thread] = dict(vc)
            vc[tid] = vc.get(tid, 0) + 1

    def _on_thread_join(self, thread: threading.Thread) -> None:
        with _STATE_LOCK:
            child_tid = _thread_ids.get(thread)
            if child_tid is None:
                return  # never touched tracked state
            child_vc = self._vc.get(child_tid)
            if child_vc is None:
                return
            _tid, vc = self._vc_current()
            _vc_join(vc, child_vc)

    # -- lock events -------------------------------------------------------

    def _on_acquire(self, lock: TrackedLock) -> None:
        with _STATE_LOCK:
            tid, vc = self._vc_current()
            held = self._locksets.setdefault(tid, [])
            for entry in held:
                if entry.lock is lock:
                    entry.depth += 1  # re-entrant RLock, same instance
                    return
            _vc_join(vc, lock.vc)
            if held:
                relpath, line, symbol = _user_frame(skip=3)
                if relpath is None:
                    relpath = lock.site_relpath or "analysis/sanitizer.py"
                for entry in held:
                    edge_key = (entry.lock.domain, lock.domain)
                    obs = self._edges.get(edge_key)
                    if obs is None:
                        self._edges[edge_key] = _EdgeObs(
                            outer=entry.lock.domain, inner=lock.domain,
                            relpath=relpath, line=line, symbol=symbol,
                            stack=_capture_stack(skip=3),
                        )
                    else:
                        obs.count += 1
            held.append(_Held(lock=lock))

    def _on_release(self, lock: TrackedLock) -> None:
        with _STATE_LOCK:
            tid, vc = self._vc_current()
            held = self._locksets.get(tid)
            if not held:
                return  # acquired before activation — nothing to unwind
            for index in range(len(held) - 1, -1, -1):
                if held[index].lock is lock:
                    held[index].depth -= 1
                    if held[index].depth == 0:
                        del held[index]
                        # Snapshot *then* tick: the next acquirer is
                        # ordered after everything up to this release,
                        # but not after what this thread does next —
                        # post-release accesses must stay uncovered.
                        lock.vc = dict(vc)
                        vc[tid] = vc.get(tid, 0) + 1
                    return

    # -- shared-state events ----------------------------------------------

    def _record_access(self, obj: object, attr: str, is_write: bool) -> None:
        cls = type(obj)
        with _STATE_LOCK:
            if self._dead_ids:
                self._purge_dead()
            tid, vc = self._vc_current()
            key = (id(obj), attr)
            state = self._vars.get(key)
            if state is None:
                state = _VarState(
                    cls_name=cls.__name__, attr=attr,
                    relpath=_class_relpath(cls), state=_EXCLUSIVE,
                    owner=tid,
                )
                self._vars[key] = state
                self._watch(obj)
            self._step(state, tid, vc, is_write)

    def _watch(self, obj: object) -> None:
        oid = id(obj)
        if oid in self._var_refs:
            return
        dead = self._dead_ids

        def _purge(_ref: weakref.ref, oid: int = oid) -> None:
            # GC callback: may fire while _STATE_LOCK is held, so only
            # append (atomic under the GIL); draining happens lazily.
            dead.append(oid)

        try:
            self._var_refs[oid] = weakref.ref(obj, _purge)
        except TypeError:  # pragma: no cover - non-weakrefable instance
            pass

    def _purge_dead(self) -> None:
        dead: Set[int] = set()
        while self._dead_ids:
            dead.add(self._dead_ids.pop())
        for key in [k for k in self._vars if k[0] in dead]:
            del self._vars[key]
        for oid in dead:
            self._var_refs.pop(oid, None)

    def _step(self, state: _VarState, tid: int, vc: Dict[int, int],
              is_write: bool) -> None:
        """One transition of the happens-before-refined Eraser machine."""
        if state.state == _RACED:
            return

        held = self._locksets.get(tid) or ()
        if state.state == _EXCLUSIVE:
            if tid != state.owner:
                if _vc_leq(state.access_vc, vc):
                    # every prior access happened-before this one:
                    # ownership transfer, still the initialization phase.
                    state.owner = tid
                else:
                    # first genuinely concurrent access: candidates are
                    # the locks held *now* (Eraser's init-write exclusion).
                    state.candidates = {entry.lock.uid for entry in held}
                    state.state = _SHARED_MOD if is_write else _SHARED
                    if state.state == _SHARED_MOD and not state.candidates:
                        self._report_race(state, tid, held)
        else:
            if not is_write and _vc_leq(state.write_vc, vc):
                # A read ordered after every write so far cannot race and
                # must not erode the candidate set (e.g. a post-join
                # assert reading without the lock).
                pass
            elif _vc_leq(state.access_vc, vc):
                # Phase change: everything so far happened-before this
                # access — re-own, the machine restarts from here.
                state.state = _EXCLUSIVE
                state.owner = tid
                state.candidates = None
            else:
                assert state.candidates is not None
                state.candidates &= {entry.lock.uid for entry in held}
                if is_write:
                    state.state = _SHARED_MOD
                if state.state == _SHARED_MOD and not state.candidates:
                    self._report_race(state, tid, held)

        self._touch(state, tid, vc, is_write, held)

    def _touch(self, state: _VarState, tid: int, vc: Dict[int, int],
               is_write: bool, held: Sequence[_Held]) -> None:
        _vc_join(state.access_vc, vc)
        if is_write:
            _vc_join(state.write_vc, vc)
        if state.state != _RACED:
            state.last_stack = _capture_stack(skip=5)
            state.last_tid = tid
            state.last_domains = tuple(entry.lock.domain for entry in held)

    def _report_race(self, state: _VarState, tid: int,
                     held: Sequence[_Held]) -> None:
        key = (state.cls_name, state.attr)
        state.state = _RACED
        if key in self._race_keys:
            return
        self._race_keys.add(key)
        self.races.append(RaceReport(
            cls_name=state.cls_name, attr=state.attr, relpath=state.relpath,
            first_tid=state.last_tid, second_tid=tid,
            first_stack=state.last_stack,
            second_stack=_capture_stack(skip=5),
            first_locks=state.last_domains,
            second_locks=tuple(entry.lock.domain for entry in held),
        ))

    # -- teardown checks ---------------------------------------------------

    def finalize(self) -> List["Finding"]:
        """Findings for everything observed; safe to call repeatedly."""
        from repro.analysis import lock_order
        from repro.analysis.findings import Finding, assign_ordinals

        findings: List[Finding] = []
        for race in self.races:
            findings.append(Finding(
                rule_id="RACE001", severity="error", relpath=race.relpath,
                line=1, col=0, symbol=f"{race.cls_name}.{race.attr}",
                message=(f"unsynchronized access to "
                         f"{race.cls_name}.{race.attr}: candidate lockset "
                         f"emptied with no happens-before edge "
                         f"(second access held "
                         f"{sorted(set(race.second_locks)) or 'no locks'})"),
            ))

        if self.check_order:
            edges = [
                lock_order.LockEdge(
                    outer=obs.outer, inner=obs.inner, relpath=obs.relpath,
                    line=obs.line, symbol=obs.symbol, via_call=False,
                )
                for _key, obs in sorted(self._edges.items())
            ]
            order_findings = [finding for edge in edges
                              for finding in lock_order._edge_findings(edge)]
            order_findings.extend(lock_order._cycle_findings(edges))
            for finding in order_findings:
                findings.append(Finding(
                    rule_id="RACE002", severity="error",
                    relpath=finding.relpath, line=finding.line, col=0,
                    symbol=finding.symbol,
                    message=(f"runtime order violation "
                             f"[{finding.rule_id}]: {finding.message}"),
                ))

        return assign_ordinals(findings)

    # -- reporting ---------------------------------------------------------

    def observed_edges(self) -> List[_EdgeObs]:
        return [obs for _key, obs in sorted(self._edges.items())]

    def to_report(self) -> Dict[str, Any]:
        """JSON-serializable payload consumed by ``repro lint``."""
        findings = self.finalize()
        return {
            "version": 1,
            "findings": [
                {
                    "fingerprint": f.fingerprint, "rule_id": f.rule_id,
                    "severity": f.severity, "relpath": f.relpath,
                    "line": f.line, "col": f.col, "symbol": f.symbol,
                    "message": f.message, "ordinal": f.ordinal,
                }
                for f in findings
            ],
            "races": [
                {
                    "class": race.cls_name, "attr": race.attr,
                    "relpath": race.relpath,
                    "first_stack": [list(frame)
                                    for frame in race.first_stack],
                    "second_stack": [list(frame)
                                     for frame in race.second_stack],
                    "first_locks": list(race.first_locks),
                    "second_locks": list(race.second_locks),
                }
                for race in self.races
            ],
            "edges": [
                {
                    "outer": obs.outer, "inner": obs.inner,
                    "relpath": obs.relpath, "line": obs.line,
                    "symbol": obs.symbol, "count": obs.count,
                }
                for obs in self.observed_edges()
            ],
        }

    def write_report(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_report(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def load_report(path) -> List["Finding"]:
    """Findings from a :meth:`Sanitizer.write_report` JSON file."""
    import json

    from repro.analysis.findings import Finding

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != 1:
        raise ValueError(f"{path}: unsupported sanitizer report version "
                         f"{payload.get('version')!r}")
    return [
        Finding(
            rule_id=raw["rule_id"], severity=raw["severity"],
            relpath=raw["relpath"], line=raw["line"], col=raw["col"],
            symbol=raw["symbol"], message=raw["message"],
            ordinal=raw.get("ordinal", 0),
        )
        for raw in payload["findings"]
    ]


@contextmanager
def sanitize(**kwargs: Any) -> Iterable[Sanitizer]:
    """``with sanitize() as san: …`` — activate a fresh sanitizer."""
    sanitizer = Sanitizer(**kwargs)
    sanitizer.activate()
    try:
        yield sanitizer
    finally:
        sanitizer.deactivate()


# --------------------------------------------------------------------------
# Thread fork/join happens-before hooks
# --------------------------------------------------------------------------

def _install_thread_hooks() -> None:
    global _orig_thread_start, _orig_thread_join
    if _orig_thread_start is not None:
        return
    _orig_thread_start = threading.Thread.start
    _orig_thread_join = threading.Thread.join

    def start(thread: threading.Thread, *args: Any, **kwargs: Any):
        sanitizer = _ACTIVE
        if sanitizer is not None:
            sanitizer._on_thread_start(thread)
        return _orig_thread_start(thread, *args, **kwargs)

    def join(thread: threading.Thread, *args: Any, **kwargs: Any):
        result = _orig_thread_join(thread, *args, **kwargs)
        sanitizer = _ACTIVE
        if sanitizer is not None and not thread.is_alive():
            sanitizer._on_thread_join(thread)
        return result

    threading.Thread.start = start  # type: ignore[method-assign]
    threading.Thread.join = join  # type: ignore[method-assign]


def _remove_thread_hooks() -> None:
    global _orig_thread_start, _orig_thread_join
    if _orig_thread_start is None:
        return
    threading.Thread.start = _orig_thread_start  # type: ignore[method-assign]
    threading.Thread.join = _orig_thread_join  # type: ignore[method-assign]
    _orig_thread_start = None
    _orig_thread_join = None
