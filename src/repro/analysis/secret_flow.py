"""SEC: the paper's invariant — credentials never leave the enclave.

The registry below names every secret-bearing identifier in the tree
(private keys, the EPID member secret, sealing keys, the TLS master and
session secrets, the VM's credential-derivation root).  Inside the enclave
boundary (``sgx/``, ``tls/``, the two ``core/*_enclave.py`` workloads —
see :data:`repro.analysis.base.ENCLAVE_PREFIXES`) those names may flow
anywhere.  *Outside* it, an intraprocedural taint walk flags every escape
to an observable channel:

============  ==========================================================
SEC001        tainted value returned from a function
SEC002        tainted value passed to a log/print/write call
SEC003        tainted value formatted (f-string, ``str.format``, ``%``,
              ``str()``/``repr()``)
SEC004        tainted value in a raised exception's arguments
SEC005        tainted value serialized (``json``/``pickle``/``base64``/
              ``.hex()``)
SEC006        tainted value handed to a cross-module transport sink
              (``send*``/``publish``/``record``/``emit``)
============  ==========================================================

Taint propagates through assignments, tuple packing/unpacking, attribute
and subscript loads, and byte concatenation; ordinary *calls sanitize*
(deriving a signature from a key is not leaking the key) except for the
known secret-producing derivations in :data:`SECRET_SOURCES`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.base import (
    Checker,
    ModuleContext,
    call_func_name,
    walk_functions,
)
from repro.analysis.findings import Finding

#: Identifiers (variable or attribute names) that *are* secrets.
SECRET_NAMES: Set[str] = {
    "member_secret", "_member_secret",
    "sealing_key", "_sealing_key", "sealing_aead", "_sealing_aead",
    "master_secret", "_master_secret",
    "pre_master_secret", "premaster_secret",
    "session_key", "_session_key", "session_keys",
    "private_key", "_private_key", "private_key_bytes",
    "signing_key", "_signing_key",
    "credential_root", "_credential_root",
    "group_secret", "_group_secret",
    "mac_key", "_mac_key",
    "tenant_secret", "_tenant_secret",
    "token_key", "_token_key",
    "ratls_key", "_ratls_key",
    "ticket_key", "_ticket_key",
    "resumption_ticket", "_resumption_ticket",
}

#: Calls whose *result* is a secret even though calls normally sanitize.
SECRET_SOURCES: Set[str] = {
    "derive_member_secret",
    "sealing_key",
    "export_master_secret",
}

#: Call names that put their arguments on an observable channel.
LOG_SINKS: Set[str] = {
    "print", "log", "debug", "info", "warning", "error", "critical",
    "write", "writelines",
}
SERIALIZE_SINKS: Set[str] = {
    "dumps", "dump", "b64encode", "b16encode", "hexlify", "hex",
    "to_json",
}
TRANSPORT_SINKS: Set[str] = {
    "send", "send_json", "send_frame", "publish", "record", "emit",
    "put", "broadcast",
    # repro.net.transport.ClientStream: every client exchange
    "exchange_http", "exchange_frame",
}
FORMAT_SINKS: Set[str] = {"format", "str", "repr", "format_map"}


class SecretFlowChecker(Checker):
    name = "secret-flow"
    rules = {
        "SEC001": "secret-bearing value returned outside the enclave "
                  "boundary",
        "SEC002": "secret-bearing value logged or printed",
        "SEC003": "secret-bearing value interpolated into a string",
        "SEC004": "secret-bearing value in an exception message",
        "SEC005": "secret-bearing value serialized",
        "SEC006": "secret-bearing value passed to a transport sink",
    }

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.in_enclave:
            return []
        findings: List[Finding] = []
        for qual, _cls, func in walk_functions(ctx.tree):
            findings.extend(_check_function(ctx, qual, func))
        return findings


# --------------------------------------------------------------------------
# Intraprocedural taint walk
# --------------------------------------------------------------------------

def _is_secret_name(name: Optional[str]) -> bool:
    return name is not None and name in SECRET_NAMES


class _Taint:
    """Tracks which local names are tainted inside one function."""

    def __init__(self) -> None:
        self.locals: Set[str] = set()

    def expr_tainted(self, node: ast.AST) -> bool:
        """Is this expression secret-bearing?"""
        if isinstance(node, ast.Name):
            return node.id in self.locals or _is_secret_name(node.id)
        if isinstance(node, ast.Attribute):
            return (_is_secret_name(node.attr)
                    or (self.expr_tainted(node.value)
                        and node.attr not in _SANITIZING_ATTRS))
        if isinstance(node, ast.Subscript):
            return self.expr_tainted(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self.expr_tainted(e) for e in node.elts)
        if isinstance(node, ast.Dict):
            return any(v is not None and self.expr_tainted(v)
                       for v in node.values)
        if isinstance(node, ast.BinOp):
            return self.expr_tainted(node.left) or self.expr_tainted(node.right)
        if isinstance(node, ast.Starred):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.NamedExpr):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.IfExp):
            return (self.expr_tainted(node.body)
                    or self.expr_tainted(node.orelse))
        if isinstance(node, ast.Call):
            # Calls sanitize, except the known secret derivations.
            fname = call_func_name(node)
            return fname in SECRET_SOURCES
        if isinstance(node, ast.JoinedStr):
            # Handled as a sink (SEC003); the *result* is also tainted.
            return any(self.expr_tainted(v.value) for v in node.values
                       if isinstance(v, ast.FormattedValue))
        return False

    def assign(self, target: ast.AST, tainted: bool) -> None:
        if isinstance(target, ast.Name):
            if tainted:
                self.locals.add(target.id)
            else:
                self.locals.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, tainted)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, tainted)


#: Attribute loads that *stop* taint (metadata about a secret holder is
#: not the secret: a key's name, serial, or curve identifier is public).
_SANITIZING_ATTRS: Set[str] = {
    "name", "serial", "curve", "public", "public_key", "public_bytes",
    "subject", "issuer", "version",
}


def _check_function(
    ctx: ModuleContext, qual: str, func: ast.AST,
) -> List[Finding]:
    taint = _Taint()
    findings: List[Finding] = []

    def finding(rule: str, node: ast.AST, what: str) -> None:
        findings.append(Finding(
            rule_id=rule, severity="error", relpath=ctx.relpath,
            line=node.lineno, col=node.col_offset, symbol=qual,
            message=f"{SecretFlowChecker.rules[rule]} ({what})",
        ))

    def describe(node: ast.AST) -> str:
        return ast.unparse(node)[:60]

    def scan_sinks(node: ast.AST) -> None:
        """Flag sink expressions anywhere under ``node``."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.JoinedStr):
                for value in sub.values:
                    if (isinstance(value, ast.FormattedValue)
                            and taint.expr_tainted(value.value)):
                        finding("SEC003", sub, describe(value.value))
            elif isinstance(sub, ast.Call):
                fname = call_func_name(sub)
                if fname is None:
                    continue
                args = list(sub.args) + [kw.value for kw in sub.keywords]
                hot = [a for a in args if taint.expr_tainted(a)]
                if not hot:
                    # ``secret.hex()`` has the secret as the *receiver*.
                    if (fname in SERIALIZE_SINKS
                            and isinstance(sub.func, ast.Attribute)
                            and taint.expr_tainted(sub.func.value)):
                        finding("SEC005", sub, describe(sub.func.value))
                    continue
                if fname in LOG_SINKS:
                    finding("SEC002", sub, describe(hot[0]))
                elif fname in SERIALIZE_SINKS:
                    finding("SEC005", sub, describe(hot[0]))
                elif fname in TRANSPORT_SINKS:
                    finding("SEC006", sub, describe(hot[0]))
                elif fname in FORMAT_SINKS:
                    finding("SEC003", sub, describe(hot[0]))
            elif (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod)
                    and isinstance(sub.left, (ast.Constant, ast.JoinedStr))
                    and taint.expr_tainted(sub.right)):
                finding("SEC003", sub, describe(sub.right))

    def visit_block(stmts) -> None:
        for stmt in stmts:
            visit_stmt(stmt)

    def visit_stmt(stmt: ast.AST) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are walked separately
        if isinstance(stmt, ast.Assign):
            scan_sinks(stmt.value)
            tainted = taint.expr_tainted(stmt.value)
            for target in stmt.targets:
                taint.assign(target, tainted)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            scan_sinks(stmt.value)
            taint.assign(stmt.target, taint.expr_tainted(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            scan_sinks(stmt.value)
            if taint.expr_tainted(stmt.value):
                taint.assign(stmt.target, True)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                scan_sinks(stmt.value)
                if taint.expr_tainted(stmt.value):
                    finding("SEC001", stmt, describe(stmt.value))
            return
        if isinstance(stmt, ast.Raise):
            # f-strings inside exception args are SEC004, not SEC003, so
            # the generic sink scan is deliberately skipped here.
            if stmt.exc is not None:
                if isinstance(stmt.exc, ast.Call):
                    hot = [a for a in (list(stmt.exc.args)
                                       + [k.value for k in stmt.exc.keywords])
                           if taint.expr_tainted(a)]
                    if hot:
                        finding("SEC004", stmt, describe(hot[0]))
                elif taint.expr_tainted(stmt.exc):
                    finding("SEC004", stmt, describe(stmt.exc))
            return
        if isinstance(stmt, (ast.If, ast.While)):
            scan_sinks(stmt.test)
            visit_block(stmt.body)
            visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.For):
            scan_sinks(stmt.iter)
            taint.assign(stmt.target, taint.expr_tainted(stmt.iter))
            visit_block(stmt.body)
            visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                scan_sinks(item.context_expr)
            visit_block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            visit_block(stmt.body)
            for handler in stmt.handlers:
                visit_block(handler.body)
            visit_block(stmt.orelse)
            visit_block(stmt.finalbody)
            return
        if isinstance(stmt, ast.Expr):
            scan_sinks(stmt.value)
            return
        # Fallback: still scan any expressions hanging off the statement.
        scan_sinks(stmt)

    body = getattr(func, "body", [])
    visit_block(body)
    return findings
