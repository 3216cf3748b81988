"""Checker framework: module contexts, the checker interface, shared AST
helpers.

Every checker is an AST walker over one module at a time
(:meth:`Checker.check_module`); whole-program checkers (the lock-order
graph) additionally implement :meth:`Checker.finalize`, which runs after
every module has been visited.

A :class:`ModuleContext` carries the module's *virtual* path relative to
the ``repro`` package (``"core/fleet.py"``), which is what path-sensitive
rules key on.  Tests exploit this: a fixture file from
``tests/analysis/fixtures/`` can be analyzed *as if* it lived at any
in-tree path, so seeded violations exercise the same path-scoping logic
the live tree sees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding


@dataclass
class ModuleContext:
    """One parsed module, addressed relative to the repro package root."""

    relpath: str                # posix path relative to src/repro/
    source: str
    tree: ast.Module = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.tree is None:
            self.tree = ast.parse(self.source, filename=self.relpath)

    @property
    def in_enclave(self) -> bool:
        """True for modules allowed to hold secrets (the TEE boundary)."""
        return module_in_enclave(self.relpath)


#: The enclave boundary, verbatim from the paper's invariant: credentials
#: may live in the SGX simulation, the two enclave workloads, and the
#: enclave-internal TLS stack.  Everything else is "outside" and the
#: secret-flow checker applies there.
ENCLAVE_PREFIXES: Tuple[str, ...] = ("sgx/", "tls/")
ENCLAVE_MODULES: Tuple[str, ...] = (
    "core/credential_enclave.py",
    "core/attestation_enclave.py",
    "kms/shard.py",
)


def module_in_enclave(relpath: str) -> bool:
    return relpath.startswith(ENCLAVE_PREFIXES) or relpath in ENCLAVE_MODULES


class Checker:
    """Base class for one analysis domain (a family of rules)."""

    #: Short name used by ``repro lint --rule`` selection.
    name: str = "base"
    #: rule-id -> one-line description; the CLI renders this catalogue.
    rules: Dict[str, str] = {}

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finalize(self) -> Iterable[Finding]:
        """Whole-program findings, emitted after the last module."""
        return ()


def iter_package_modules(package_root: Path) -> Iterator[ModuleContext]:
    """Yield a :class:`ModuleContext` for every ``.py`` under the package.

    ``package_root`` is the directory that *is* the ``repro`` package
    (i.e. ``src/repro``).  The analysis package itself is skipped — the
    checkers' own registries of secret names and lock attributes would
    otherwise self-flag.
    """
    for path in sorted(package_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relpath = path.relative_to(package_root).as_posix()
        if relpath.startswith("analysis/"):
            continue
        yield ModuleContext(relpath=relpath, source=path.read_text())


# --------------------------------------------------------------------------
# Shared AST helpers
# --------------------------------------------------------------------------

def walk_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, Optional[str], ast.AST]]:
    """Yield ``(qualname, class_name, func_node)`` for every function.

    ``qualname`` is ``Class.method`` or a bare function name; nested
    functions get dotted names.  Module-level statements are not yielded —
    callers that care wrap them in a synthetic ``<module>`` scope.
    """
    def visit(node: ast.AST, prefix: str, cls: Optional[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, cls, child
                yield from visit(child, qual + ".", cls)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.", child.name)

    yield from visit(tree, "", None)


def enclosing_map(tree: ast.Module) -> Dict[int, str]:
    """Map each source line to the qualname of its enclosing function."""
    spans: List[Tuple[int, int, str]] = []
    for qual, _cls, func in walk_functions(tree):
        end = getattr(func, "end_lineno", func.lineno)
        spans.append((func.lineno, end, qual))
    # Inner (later, more deeply nested) spans override outer ones.
    lines: Dict[int, str] = {}
    for start, end, qual in sorted(spans, key=lambda s: (s[0], -s[1])):
        for line in range(start, end + 1):
            lines[line] = qual
    return lines


def symbol_at(line_map: Dict[int, str], line: int) -> str:
    return line_map.get(line, "<module>")


def name_of(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def call_func_name(node: ast.Call) -> Optional[str]:
    return name_of(node.func)
