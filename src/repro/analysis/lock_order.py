"""LOCK: the documented lock-nesting order, checked statically.

``docs/CONCURRENCY.md`` fixes two ordered chains —

* **core:**    VM lock → CA lock → cache locks
* **metrics:** registry lock → family lock → child lock

— plus a set of *leaf* locks (clock, audit, the keystore-entries lock,
the pooled-IAS lock, the agent-channel lock, …) that must be innermost:
a thread holding a leaf may not take any chain lock.

The checker reconstructs the static lock graph in two steps per function:

1. every ``with <lock>:`` / ``<lock>.acquire()`` is mapped to a *domain*
   via :func:`lock_domain`, which reads the code's own literal
   ``self.<attr> = make_lock("<domain>")`` constructions
   (:func:`lock_sites`) — there is no hand-kept table to drift;
2. while a domain is held, both directly nested acquisitions *and* calls
   through domain-hinted attributes (``self._ca.issue(…)`` while holding
   the VM lock ⇒ edge ``vm → ca``) contribute edges.

Edges are validated against the chain ranks (LOCK001), the leaf rule
(LOCK002), the chain-direction rule (LOCK003), and — after all modules
have been folded into one graph — cycle-freedom (LOCK004).  LOCK006
keeps the constructions readable: every ``make_lock``/``make_rlock``
must name a documented domain as a string literal.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.analysis.base import (
    Checker,
    ModuleContext,
    call_func_name,
    enclosing_map,
    iter_package_modules,
    name_of,
    symbol_at,
    walk_functions,
)
from repro.analysis.findings import Finding

# --------------------------------------------------------------------------
# The documented order (keep in sync with docs/CONCURRENCY.md)
# --------------------------------------------------------------------------

#: Ordered chains: a lock may only be taken while holding locks strictly
#: *earlier* in its own chain.
ORDER_CHAINS: Dict[str, Tuple[str, ...]] = {
    "core": ("vm", "ca", "cache"),
    "metrics": ("registry", "family", "child"),
}

#: Leaf locks are innermost: taking any chain lock while holding one is a
#: violation.  (``AuditLog.record`` is the canonical case — it counts
#: each event in the telemetry registry, a chain lock, only *after*
#: releasing the audit lock.)
LEAF_DOMAINS: Set[str] = {
    "clock", "audit", "tracer", "simnet", "agent",
    "ias_pool", "ec_stats",
    "kms_shard", "kms_ns", "keystore_entries", "rng",
    "ec_curves",
    "ratls", "fabric", "fabric_log", "fabric_keystore",
}

#: Chains that never call *out* (LOCK003 forbids them nesting anything),
#: which makes them safe to enter even while a leaf lock is held: a
#: metric update under the pooled-IAS lock cannot deadlock because the
#: metrics chain is terminal.  The runtime sanitizer observes exactly
#: this nesting (the IAS service increments verdict counters while the
#: pooled client's leaf lock is held across the inline sim-network
#: exchange), so the static rule and the dynamic rule share the
#: exemption.
TERMINAL_CHAINS: Set[str] = {"metrics"}

#: Individually audited (outer, inner) nestings that the generic rules
#: would flag but cannot deadlock.  The connection-wrapper locks
#: (``ias_pool``, ``agent``) are held across a whole inline sim-network
#: exchange, and the TLS stack underneath stores/looks up resumable
#: sessions — so a session-/verdict-cache acquisition happens beneath
#: them.  Safe because the ``cache`` domain only ever calls *down*
#: (clock reads), never back into a wrapper lock.  Every entry here
#: needs a justification in ``docs/CONCURRENCY.md``; the runtime
#: sanitizer applies the same table to observed edges (RACE002).
SAFE_NESTINGS: Set[Tuple[str, str]] = {
    ("ias_pool", "cache"),
    ("agent", "cache"),
}

#: Fleet-outer locks wrap whole operations *before* the core machinery
#: runs: the per-host single-flight lock is held across the entire host
#: attestation (VM lock included — that is the mechanism, not an
#: accident).  It may nest chain locks inside, but never a second
#: instance of itself (see LOCK005).
OUTER_DOMAINS: Set[str] = {"host"}

#: Domains guarded by a non-reentrant ``threading.Lock`` (or, for
#: ``host``, by per-instance leaf locks where a second acquisition means
#: a *second host's* lock).  A same-domain edge here is a self-deadlock
#: or a forbidden two-instance hold.
NON_REENTRANT_DOMAINS: Set[str] = {
    "clock", "audit", "ec_stats", "host", "cache",
    "kms_shard", "kms_ns", "keystore_entries", "rng", "ratls",
    "fabric", "fabric_log", "fabric_keystore",
}

#: Cross-chain nesting: holding a ``core`` lock while updating a metric
#: (registry → family → child) is legitimate; a metric child calling back
#: into the core chain is not.
CHAIN_MAY_NEST: Dict[str, Set[str]] = {
    "core": {"metrics"},
    "metrics": set(),
}

#: Attribute-name hints used to resolve *calls made while holding a lock*
#: to the domain the callee will lock.  ``self._ca.issue(…)`` inside a
#: VM-locked region adds the edge vm → ca even though the CA's own
#: ``with self._lock`` lives in another module.
ATTR_HINTS: Dict[str, str] = {
    "_ca": "ca", "ca": "ca",
    "_cache": "cache", "_verification_cache": "cache",
    "verification_cache": "cache",
    "_session_cache": "cache", "session_cache": "cache",
    "_vm": "vm", "vm": "vm",
    "_registry": "registry",
    "_clock": "clock", "clock": "clock",
    "_audit": "audit", "audit": "audit",
    "_tracer": "tracer", "tracer": "tracer",
    "stats": "ec_stats",
    "_shards": "kms_shard",
    "_namespaces": "kms_ns",
}

_RANK: Dict[str, Tuple[str, int]] = {
    domain: (chain, rank)
    for chain, domains in ORDER_CHAINS.items()
    for rank, domain in enumerate(domains)
}

#: Every documented domain; LOCK006 rejects a lock constructed under
#: any other name.
KNOWN_DOMAINS: Set[str] = set(_RANK) | LEAF_DOMAINS | OUTER_DOMAINS

#: The factories whose first argument names a lock's domain.
LOCK_FACTORIES: Tuple[str, ...] = ("make_lock", "make_rlock")

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent  # .../src/repro


# --------------------------------------------------------------------------
# Lock sites, read from the code
# --------------------------------------------------------------------------

def _factory_calls(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and call_func_name(sub) in LOCK_FACTORIES:
            yield sub


def _literal_domain(call: ast.Call) -> Optional[str]:
    """The string literal a factory call names, else ``None``."""
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


@functools.lru_cache(maxsize=None)
def lock_sites() -> Mapping[Tuple[str, Optional[str], str], str]:
    """``(relpath, class or None, attribute) -> domain`` for every
    assignment in the package whose value constructs a lock with a
    literal domain — ``self._lock = make_lock("clock")``, or a container
    of them (``self._host_locks = {h: make_lock("host") for h in …}``).
    Parsed once per process; read-only, since every caller shares it."""
    sites: Dict[Tuple[str, Optional[str], str], str] = {}

    def visit(relpath: str, node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(relpath, child, child.name)
                continue
            if isinstance(child, ast.Assign):
                calls = list(_factory_calls(child.value))
                domain = _literal_domain(calls[0]) if calls else None
                for target in child.targets:
                    attr = name_of(target)
                    if domain is not None and attr is not None:
                        sites[(relpath, cls, attr)] = domain
            visit(relpath, child, cls)

    for ctx in iter_package_modules(_PACKAGE_ROOT):
        visit(ctx.relpath, ctx.tree, None)
    return MappingProxyType(sites)


def lock_domain(relpath: str, cls: Optional[str],
                attr: str) -> Optional[str]:
    """The domain of lock attribute ``attr`` used in class ``cls`` of
    module ``relpath``: the class's own construction, else the module's
    only domain for that attribute, else ``None`` (unresolved)."""
    sites = lock_sites()
    if (relpath, cls, attr) in sites:
        return sites[(relpath, cls, attr)]
    domains = {domain for (path, _cls, name), domain in sites.items()
               if path == relpath and name == attr}
    return domains.pop() if len(domains) == 1 else None


@dataclass(frozen=True)
class LockEdge:
    """``outer`` was held when ``inner`` was acquired (or implied)."""

    outer: str
    inner: str
    relpath: str
    line: int
    symbol: str
    via_call: bool  # edge inferred from a hinted call, not a nested with


class LockOrderChecker(Checker):
    name = "lock-order"
    rules = {
        "LOCK001": "lock acquired against its chain's documented order",
        "LOCK002": "chain lock acquired while holding a leaf lock",
        "LOCK003": "cross-chain lock nesting in a forbidden direction",
        "LOCK004": "cycle in the static lock graph",
        "LOCK005": "non-reentrant lock domain re-acquired while held",
        "LOCK006": "lock constructed without a documented literal domain",
    }

    def __init__(self) -> None:
        self._edges: List[LockEdge] = []

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        edges: List[LockEdge] = []
        for qual, cls, func in walk_functions(ctx.tree):
            collector = _FunctionLockWalker(ctx.relpath, cls, qual)
            collector.walk(func)
            edges.extend(collector.edges)
        self._edges.extend(edges)
        findings = [f for edge in edges for f in _edge_findings(edge)]
        findings.extend(_construction_findings(ctx))
        return findings

    def finalize(self) -> Iterable[Finding]:
        findings = list(_cycle_findings(self._edges))
        self._edges = []
        return findings


# --------------------------------------------------------------------------
# Per-function extraction
# --------------------------------------------------------------------------

class _FunctionLockWalker:
    """Extract lock-nesting edges from one function body."""

    def __init__(self, relpath: str, cls: Optional[str], qual: str) -> None:
        self.relpath = relpath
        self.cls = cls
        self.qual = qual
        self.edges: List[LockEdge] = []
        #: local variable -> lock domain (``lock = self._host_locks[h]``)
        self.lock_aliases: Dict[str, str] = {}

    # -- resolution --------------------------------------------------------

    def _acquired_domain(self, expr: ast.AST) -> Optional[str]:
        """Domain of the lock object in ``with <expr>`` / ``<expr>.acquire()``."""
        if isinstance(expr, ast.Attribute):
            domain = lock_domain(self.relpath, self.cls, expr.attr)
            if domain is not None:
                return domain
        if isinstance(expr, ast.Subscript):
            return self._acquired_domain(expr.value)
        if isinstance(expr, ast.Name):
            return self.lock_aliases.get(expr.id)
        return None

    def _called_domain(self, call: ast.Call) -> Optional[str]:
        """Domain a call will lock, resolved through attribute hints."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        hint: Optional[str] = None
        if isinstance(receiver, ast.Attribute):
            hint = receiver.attr
        elif isinstance(receiver, ast.Name) and receiver.id != "self":
            hint = receiver.id
        if hint is None:
            return None
        return ATTR_HINTS.get(hint)

    # -- walking -----------------------------------------------------------

    def walk(self, func: ast.AST) -> None:
        self._walk_block(getattr(func, "body", []), held=())

    def _note_alias(self, stmt: ast.Assign) -> None:
        domain = self._acquired_domain(stmt.value)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                if domain is not None:
                    self.lock_aliases[target.id] = domain
                else:
                    self.lock_aliases.pop(target.id, None)

    def _add_edges(self, held: Sequence[str], inner: str, line: int,
                   via_call: bool) -> None:
        for outer in held:
            if outer == inner:
                if inner in NON_REENTRANT_DOMAINS and not via_call:
                    # Direct re-acquisition of a Lock-guarded domain (or
                    # a second per-host instance): LOCK005.
                    # Hinted *calls* back into the same domain are almost
                    # always a sibling instance's public API and RLock
                    # domains re-enter fine, so only direct nesting fires.
                    self.edges.append(LockEdge(
                        outer=outer, inner=inner, relpath=self.relpath,
                        line=line, symbol=self.qual, via_call=via_call,
                    ))
                continue  # re-entrant RLock on the same domain
            self.edges.append(LockEdge(
                outer=outer, inner=inner, relpath=self.relpath,
                line=line, symbol=self.qual, via_call=via_call,
            ))

    def _scan_calls(self, node: ast.AST, held: Sequence[str]) -> None:
        if not held:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                domain = self._called_domain(sub)
                if domain is not None:
                    self._add_edges(held, domain, sub.lineno, via_call=True)

    def _walk_block(self, stmts, held: Tuple[str, ...]) -> None:
        # ``x.acquire()`` extends the held set for the rest of the block
        # (until a matching ``x.release()`` at the same nesting level).
        block_held = held
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Assign):
                self._note_alias(stmt)
                self._scan_calls(stmt.value, block_held)
                continue
            if isinstance(stmt, ast.With):
                inner_held = block_held
                for item in stmt.items:
                    domain = self._acquired_domain(item.context_expr)
                    if domain is not None:
                        self._add_edges(inner_held, domain,
                                        item.context_expr.lineno,
                                        via_call=False)
                        inner_held = inner_held + (domain,)
                    else:
                        self._scan_calls(item.context_expr, block_held)
                self._walk_block(stmt.body, inner_held)
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                verb = (call.func.attr
                        if isinstance(call.func, ast.Attribute) else None)
                if verb == "acquire":
                    domain = self._acquired_domain(call.func.value)
                    if domain is not None:
                        self._add_edges(block_held, domain, call.lineno,
                                        via_call=False)
                        block_held = block_held + (domain,)
                        continue
                if verb == "release":
                    domain = self._acquired_domain(call.func.value)
                    if domain is not None and domain in block_held:
                        idx = len(block_held) - 1 - tuple(
                            reversed(block_held)).index(domain)
                        block_held = block_held[:idx] + block_held[idx + 1:]
                        continue
                self._scan_calls(stmt, block_held)
                continue
            if isinstance(stmt, (ast.If, ast.While)):
                self._scan_calls(stmt.test, block_held)
                self._walk_block(stmt.body, block_held)
                self._walk_block(stmt.orelse, block_held)
                continue
            if isinstance(stmt, ast.For):
                self._scan_calls(stmt.iter, block_held)
                self._walk_block(stmt.body, block_held)
                self._walk_block(stmt.orelse, block_held)
                continue
            if isinstance(stmt, ast.Try):
                self._walk_block(stmt.body, block_held)
                for handler in stmt.handlers:
                    self._walk_block(handler.body, block_held)
                self._walk_block(stmt.orelse, block_held)
                self._walk_block(stmt.finalbody, block_held)
                continue
            self._scan_calls(stmt, block_held)


# --------------------------------------------------------------------------
# Edge validation + cycle detection
# --------------------------------------------------------------------------

def _edge_findings(edge: LockEdge) -> Iterable[Finding]:
    how = "call into" if edge.via_call else "acquisition of"
    if (edge.outer, edge.inner) in SAFE_NESTINGS:
        return
    outer_info = _RANK.get(edge.outer)
    inner_info = _RANK.get(edge.inner)

    if edge.outer == edge.inner:
        yield Finding(
            rule_id="LOCK005", severity="error", relpath=edge.relpath,
            line=edge.line, col=0, symbol=edge.symbol,
            message=(f"'{edge.inner}' re-acquired while already held — "
                     f"self-deadlock on a non-reentrant lock, or a second "
                     f"instance of a single-flight lock"),
        )
        return
    if edge.outer in LEAF_DOMAINS and (
            (inner_info is not None and inner_info[0] not in TERMINAL_CHAINS)
            or edge.inner in OUTER_DOMAINS):
        yield Finding(
            rule_id="LOCK002", severity="error", relpath=edge.relpath,
            line=edge.line, col=0, symbol=edge.symbol,
            message=(f"leaf lock '{edge.outer}' held during {how} "
                     f"lock '{edge.inner}' — leaf locks must be innermost"),
        )
        return
    if edge.inner in OUTER_DOMAINS:
        yield Finding(
            rule_id="LOCK002", severity="error", relpath=edge.relpath,
            line=edge.line, col=0, symbol=edge.symbol,
            message=(f"fleet-outer lock '{edge.inner}' acquired while "
                     f"holding '{edge.outer}' — outer locks wrap whole "
                     f"operations and must be taken first"),
        )
        return
    if edge.outer in OUTER_DOMAINS:
        return  # outer locks may wrap chain and leaf locks (single-flight)
    if outer_info is None or inner_info is None:
        return  # leaf→leaf or chain→leaf nesting is allowed
    outer_chain, outer_rank = outer_info
    inner_chain, inner_rank = inner_info
    if outer_chain == inner_chain:
        if inner_rank <= outer_rank:
            chain = " → ".join(ORDER_CHAINS[outer_chain])
            yield Finding(
                rule_id="LOCK001", severity="error", relpath=edge.relpath,
                line=edge.line, col=0, symbol=edge.symbol,
                message=(f"{how} '{edge.inner}' lock while holding "
                         f"'{edge.outer}' violates the documented "
                         f"{chain} order"),
            )
    elif inner_chain not in CHAIN_MAY_NEST.get(outer_chain, set()):
        yield Finding(
            rule_id="LOCK003", severity="error", relpath=edge.relpath,
            line=edge.line, col=0, symbol=edge.symbol,
            message=(f"{how} '{edge.inner}' ({inner_chain} chain) while "
                     f"holding '{edge.outer}' ({outer_chain} chain) — "
                     f"only {outer_chain} → "
                     f"{sorted(CHAIN_MAY_NEST.get(outer_chain, set()))} "
                     f"nesting is documented"),
        )


def _construction_findings(ctx: ModuleContext) -> Iterable[Finding]:
    """LOCK006: a lock whose domain is not a documented string literal
    cannot be mapped to its site, so every rule above would miss it."""
    line_map = enclosing_map(ctx.tree)
    for call in _factory_calls(ctx.tree):
        domain = _literal_domain(call)
        if domain in KNOWN_DOMAINS:
            continue
        what = ("a non-literal domain" if domain is None
                else f"unknown domain '{domain}'")
        yield Finding(
            rule_id="LOCK006", severity="error", relpath=ctx.relpath,
            line=call.lineno, col=call.col_offset,
            symbol=symbol_at(line_map, call.lineno),
            message=(f"{call_func_name(call)}() with {what} — name one of "
                     f"ORDER_CHAINS, LEAF_DOMAINS or OUTER_DOMAINS as a "
                     f"string literal (see docs/CONCURRENCY.md)"),
        )


def _cycle_findings(edges: Sequence[LockEdge]) -> Iterable[Finding]:
    graph: Dict[str, Set[str]] = {}
    samples: Dict[Tuple[str, str], LockEdge] = {}
    for edge in edges:
        if edge.outer == edge.inner:
            continue  # self-edges are LOCK005's business, not a cycle
        graph.setdefault(edge.outer, set()).add(edge.inner)
        graph.setdefault(edge.inner, set())
        samples.setdefault((edge.outer, edge.inner), edge)

    # Iterative DFS cycle detection with path recovery.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    reported: Set[Tuple[str, ...]] = set()

    def dfs(start: str) -> None:
        stack: List[Tuple[str, Iterable[str]]] = [(start, iter(sorted(graph[start])))]
        path = [start]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    cycle = tuple(path[path.index(nxt):] + [nxt])
                    key = tuple(sorted(set(cycle)))
                    if key not in reported:
                        reported.add(key)
                        sample = samples[(node, nxt)]
                        yield_cycles.append((cycle, sample))
                elif color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                if path and path[-1] == node:
                    path.pop()

    yield_cycles: List[Tuple[Tuple[str, ...], LockEdge]] = []
    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)
    for cycle, sample in yield_cycles:
        yield Finding(
            rule_id="LOCK004", severity="error", relpath=sample.relpath,
            line=sample.line, col=0, symbol=sample.symbol,
            message=("static lock graph contains a cycle: "
                     + " → ".join(cycle)),
        )
