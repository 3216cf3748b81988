"""HYG: failure-handling and determinism hygiene across the whole tree.

============  ==========================================================
HYG001        bare ``except:`` (swallows ``KeyboardInterrupt`` and masks
              programming errors — name the exception or use
              ``except Exception`` with a justification comment)
HYG002        mutable default argument (shared across calls)
HYG003        wall-clock or ambient entropy that bypasses the simulation
              (``time.*`` except ``perf_counter``, ``random.*``,
              ``datetime.now``/``utcnow``, ``os.urandom``; no module is
              exempt) — use ``VirtualClock`` / the HMAC-DRBG
HYG005        ``ProcessPoolExecutor`` / ``multiprocessing`` anywhere —
              process pools fork, and a fork while another thread holds
              a lock replicates that lock in the held state forever;
              workers would also need key material shipped to them
              across a pickle boundary.  The simulation stays one
              process (the fleet overlaps work on threads)
============  ==========================================================

A retired rule's id is not reused (``docs/ANALYSIS.md`` lists it).

The determinism rule exists because the whole repo is a simulation: test
reproducibility and byte-identical fleet enrollment both depend on every
time source being the ``VirtualClock`` and every random bit coming from
a seeded DRBG.  ``time.perf_counter`` is allowed everywhere — wall-clock
*measurement* (bench harness, fleet reports) is deliberate and documented
in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List

from repro.analysis.base import Checker, ModuleContext, enclosing_map, symbol_at
from repro.analysis.findings import Finding

#: ``time`` module attributes allowed everywhere (wall-time measurement).
ALLOWED_TIME_ATTRS = {"perf_counter", "perf_counter_ns"}

MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray"}


class HygieneChecker(Checker):
    name = "hygiene"
    rules = {
        "HYG001": "bare 'except:' clause",
        "HYG002": "mutable default argument",
        "HYG003": "nondeterministic time/entropy source bypasses "
                  "VirtualClock/DRBG",
        "HYG005": "process pool / multiprocessing",
    }

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        line_map = enclosing_map(ctx.tree)

        def finding(rule: str, node: ast.AST, detail: str,
                    severity: str = "error") -> None:
            findings.append(Finding(
                rule_id=rule, severity=severity, relpath=ctx.relpath,
                line=node.lineno, col=node.col_offset,
                symbol=symbol_at(line_map, node.lineno),
                message=f"{self.rules[rule]}: {detail}",
            ))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                finding("HYG001", node,
                        "catch a named exception class instead")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for default in (list(node.args.defaults)
                                + [d for d in node.args.kw_defaults
                                   if d is not None]):
                    if _is_mutable_default(default):
                        finding("HYG002", default,
                                f"in signature of {node.name}(); use None "
                                f"and create inside the body")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                findings.extend(
                    _process_pool_findings(self, ctx, line_map, node))
            elif isinstance(node, ast.Attribute):
                if node.attr == "ProcessPoolExecutor":
                    finding("HYG005", node,
                            "keep the work in-process")
                findings.extend(
                    _entropy_findings(self, ctx, line_map, node))
        return findings


def _process_pool_findings(
    checker: HygieneChecker, ctx: ModuleContext,
    line_map: Dict[int, str], node: ast.AST,
) -> Iterable[Finding]:
    """HYG005: no module may import process machinery."""

    def hit(detail: str) -> Finding:
        return Finding(
            rule_id="HYG005", severity="error", relpath=ctx.relpath,
            line=node.lineno, col=node.col_offset,
            symbol=symbol_at(line_map, node.lineno),
            message=f"{checker.rules['HYG005']}: {detail} — keep the "
                    f"work in-process",
        )

    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "multiprocessing":
                yield hit(f"import {alias.name}")
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module.split(".")[0] == "multiprocessing":
            yield hit(f"from {module} import ...")
        else:
            for alias in node.names:
                if alias.name == "ProcessPoolExecutor":
                    yield hit(f"from {module} import ProcessPoolExecutor")


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in MUTABLE_FACTORIES
    return False


def _entropy_findings(
    checker: HygieneChecker, ctx: ModuleContext,
    line_map: Dict[int, str], node: ast.Attribute,
) -> Iterable[Finding]:
    if not isinstance(node.value, ast.Name):
        return
    module, attr = node.value.id, node.attr

    def hit(detail: str) -> Finding:
        return Finding(
            rule_id="HYG003", severity="warning", relpath=ctx.relpath,
            line=node.lineno, col=node.col_offset,
            symbol=symbol_at(line_map, node.lineno),
            message=f"{checker.rules['HYG003']}: {detail}",
        )

    if module == "time" and attr not in ALLOWED_TIME_ATTRS:
        yield hit(f"time.{attr} — charge the VirtualClock instead")
    elif module == "random":
        yield hit(f"random.{attr} — draw from the seeded HMAC-DRBG")
    elif module == "datetime" and attr in {"now", "utcnow", "today"}:
        yield hit(f"datetime.{attr} — derive timestamps from the "
                  f"VirtualClock")
    elif module == "os" and attr == "urandom":
        yield hit("os.urandom — draw from the seeded HMAC-DRBG the caller "
                  "passes in")
