"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer (one module
or class of the repository per layer) with a span recorder, for the
duration of a ``with`` block:

* a method is patched on its class;
* a function that other modules imported by name (``ecdsa_sign``,
  ``seal``, ``hmac_sha256``, ...) is patched by rebinding every
  ``repro.*`` module global that *is* the original function.

Every patch is restored on exit.  Spans are recorded only inside an
operation opened with :meth:`Tracer.op`, so set-up, warm-up and the
benchmark's own output checks are not counted.  A span's self time is
its duration minus the time of the spans it directly contains; the
operation's root span keeps whatever no wrapped layer claimed, which is
reported as ``trace.unattributed_frac``.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional

ROOT = -1


class Boundary(NamedTuple):
    """One wrapped entry point.

    ``measure(args, result, before)`` returns an amount to accumulate
    (bytes, hits, messages); ``before(args)`` captures state first.
    ``recursive`` marks a function that calls itself (the DER codec
    walking a nested structure): a direct self-call opens no new span.
    """

    layer: str
    target: str             # "module:Class.attr" or "module:function"
    name: str               # span name; several targets may share one
    measure: Optional[Callable] = None
    before: Optional[Callable] = None
    recursive: bool = False


def _length(position: int) -> Callable:
    return lambda args, result, before: len(args[position])


def _messages_before(args):
    return args[0].network.messages_sent


def _messages_after(args, result, before):
    return args[0].network.messages_sent - before


BOUNDARIES = (
    Boundary("crypto.gcm", "repro.crypto.gcm:AesGcm.__init__", "gcm.setup"),
    Boundary("crypto.gcm", "repro.crypto.gcm:AesGcm.encrypt", "gcm.bulk",
             _length(2)),
    Boundary("crypto.gcm", "repro.crypto.gcm:AesGcm.decrypt", "gcm.bulk",
             _length(2)),
    Boundary("crypto.ec", "repro.crypto.ec:_Curve.multiply_generator",
             "ec.mult"),
    Boundary("crypto.ec", "repro.crypto.ec:_Curve.multiply_point", "ec.mult"),
    Boundary("crypto.ec", "repro.crypto.ec:_Curve.multiply_dual", "ec.mult"),
    Boundary("crypto.ec", "repro.crypto.ecdsa:ecdsa_sign", "ecdsa.sign"),
    Boundary("crypto.ec", "repro.crypto.ecdsa:ecdsa_verify", "ecdsa.verify"),
    Boundary("crypto.hmac", "repro.crypto.hmac:HmacSha256.__init__",
             "hmac.key"),
    Boundary("crypto.hmac", "repro.crypto.hmac:hmac_sha256", "hmac.mac"),
    Boundary("pki", "repro.pki.der:encode", "der", recursive=True),
    Boundary("pki", "repro.pki.der:decode", "der", recursive=True),
    Boundary("pki", "repro.pki.ca:CertificateAuthority.issue", "ca.issue"),
    Boundary("pki", "repro.pki.ca:CertificateAuthority.issue_from_csr",
             "ca.issue"),
    Boundary("pki", "repro.pki.ca:CertificateAuthority.current_crl",
             "ca.crl"),
    Boundary("tls", "repro.tls.client:TlsClient.connect", "tls.connect",
             lambda args, result, before: int(result.resumed)),
    Boundary("tls", "repro.tls.record:RecordLayer.encode", "tls.record"),
    Boundary("tls", "repro.tls.record:RecordLayer.feed", "tls.record"),
    Boundary("tls", "repro.tls.session:SessionCache.lookup",
             "tls.session_lookup"),
    Boundary("net", "repro.net.simnet:Network.connect", "simnet.connect"),
    Boundary("net", "repro.net.channel:Channel.send", "simnet.send",
             _length(1)),
    Boundary("net", "repro.net.rest:HttpParser.feed", "rest.parse"),
    Boundary("sgx", "repro.sgx.enclave:Enclave.ecall", "enclave.ecall"),
    Boundary("sgx", "repro.sgx.sealing:seal", "seal"),
    Boundary("sgx", "repro.sgx.sealing:unseal", "seal"),
    Boundary("ias", "repro.ias.service:IasService.verify_quote", "ias.verify"),
    Boundary("ias", "repro.ias.service:IasService.verify_quotes",
             "ias.verify"),
    Boundary("core", "repro.core.verification_cache:VerificationCache.lookup",
             "vcache.lookup",
             lambda args, result, before: int(result is not None)),
    Boundary("core", "repro.core.appraisal:AppraisalEngine.appraise",
             "appraisal"),
    Boundary("core",
             "repro.core.verification_manager:VerificationManager.attest_host",
             "vm"),
    Boundary("core",
             "repro.core.verification_manager:VerificationManager.enroll_vnf",
             "vm"),
    Boundary("core",
             "repro.core.verification_manager:VerificationManager.revoke_vnf",
             "vm"),
    Boundary("kms", "repro.kms.service:KeyManagerService.store", "kms.op"),
    Boundary("kms", "repro.kms.service:KeyManagerService.fetch", "kms.op"),
    Boundary("kms", "repro.kms.service:KeyManagerService.delete", "kms.op"),
    Boundary("kms", "repro.kms.service:KeyManagerService.names", "kms.op"),
    Boundary("kms", "repro.kms.service:KeyManagerService.generate", "kms.op"),
    Boundary("kms", "repro.kms.tenancy:TenantRegistry.authenticate",
             "kms.auth"),
    Boundary("kms", "repro.kms.shard:SecretShard.store", "kms.shard"),
    Boundary("kms", "repro.kms.shard:SecretShard.fetch", "kms.shard"),
    Boundary("kms", "repro.kms.shard:SecretShard.delete", "kms.shard"),
    Boundary("sdn", "repro.sdn.controller:FloodlightController.push_flow",
             "sdn.controller"),
    Boundary("sdn", "repro.sdn.controller:FloodlightController.delete_flow",
             "sdn.controller"),
    Boundary("sdn", "repro.sdn.controller:FloodlightController.static_flows",
             "sdn.controller"),
    Boundary("sdn", "repro.sdn.controller:FloodlightController.summary",
             "sdn.controller"),
    Boundary("sdn", "repro.sdn.fabric:TrustedFabric.revoke_vnf",
             "fabric.revoke", _messages_after, _messages_before),
)

LAYERS = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))


def _resolve(target: str):
    """``(owner, attribute, original)`` for one boundary target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, owner.__dict__[attribute]


class Tracer:
    """Span recorder over :data:`BOUNDARIES` (one client thread).

    Aggregates (count, inclusive time, self time, measured amount per
    boundary; root self time; GC pauses) cover every operation.  Raw
    spans are kept for the first ``raw_ops`` operations, up to
    ``raw_limit`` spans.
    """

    def __init__(self, raw_ops: int = 500, raw_limit: int = 200_000) -> None:
        size = len(BOUNDARIES)
        self.count = [0] * size
        self.total = [0.0] * size
        self.self_time = [0.0] * size
        self.amount = [0.0] * size
        self.ops = 0
        self.op_wall = 0.0
        self.root_self = 0.0
        self.gc_pause = 0.0
        self.gc_collections = [0, 0, 0]
        self.raw_ops = raw_ops
        self.raw_limit = raw_limit
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._op_id = -1
        self._record = False
        self._patches: List[tuple] = []
        self._gc_start = 0.0

    # ----------------------------------------------------------- patching

    def __enter__(self) -> "Tracer":
        originals: Dict[int, tuple] = {}    # id -> (original, wrapper)
        for index, boundary in enumerate(BOUNDARIES):
            owner, attribute, original = _resolve(boundary.target)
            wrapper = self._wrap(index, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapper)
            else:
                originals[id(original)] = (original, wrapper)
        # Functions: rebind every repro.* global that is the original.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attribute, hit[1])
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner, attribute: str, wrapper: Callable) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _wrap(self, index: int, original: Callable) -> Callable:
        boundary = BOUNDARIES[index]
        measure, before_hook = boundary.measure, boundary.before
        recursive = boundary.recursive
        stack = self._stack
        clock = time.perf_counter
        count, total, self_time, amount = (self.count, self.total,
                                           self.self_time, self.amount)

        def traced(*args, **kwargs):
            if not stack or (recursive and stack[-1][0] == index):
                return original(*args, **kwargs)
            before = before_hook(args) if before_hook is not None else None
            frame = [index, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stack[-1][1] += elapsed
                count[index] += 1
                total[index] += elapsed
                self_time[index] += elapsed - frame[1]
                if self._record and len(self.spans) < self.raw_limit:
                    self.spans.append((frame[2], stack[-1][2], index, start,
                                       end, self._op_id))
            if measure is not None:
                amount[index] += measure(args, result, before)
            return result

        return traced

    # ---------------------------------------------------------- operations

    def op(self, op_id: int, call: Callable):
        """Run one operation under a root span; returns its result."""
        self._op_id = op_id
        self._record = op_id < self.raw_ops
        frame = [ROOT, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.ops += 1
            self.op_wall += end - start
            self.root_self += (end - start) - frame[1]
            if self._record and len(self.spans) < self.raw_limit:
                self.spans.append((frame[2], None, ROOT, start, end, op_id))

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause += time.perf_counter() - self._gc_start
            self.gc_collections[info["generation"]] += 1

    # -------------------------------------------------------------- output

    def write_spans(self, path) -> None:
        """Write the raw spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, index, start, end, op_id in self.spans:
                name = "op" if index == ROOT else BOUNDARIES[index].name
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "layer": "" if index == ROOT else BOUNDARIES[index].layer,
                    "start": start, "end": end, "op": op_id,
                }) + "\n")

    def _sum(self, values: List[float], *names: str) -> float:
        return sum(values[i] for i, b in enumerate(BOUNDARIES)
                   if b.name in names)

    def layer_self_ms(self) -> Dict[str, float]:
        """Self time per layer, in ms per operation."""
        ops = max(self.ops, 1)
        split = {layer: 0.0 for layer in LAYERS}
        for index, boundary in enumerate(BOUNDARIES):
            split[boundary.layer] += self.self_time[index]
        return {layer: 1e3 * seconds / ops for layer, seconds in split.items()}

    def metrics(self, revokes: int) -> Dict[str, float]:
        """The per-layer metrics, normalised per operation (per
        revocation for ``fabric.*``)."""
        ops = max(self.ops, 1)
        count, total, amount = self.count, self.total, self.amount
        self_ms = self.layer_self_ms()

        def per_op(values, *names):
            return self._sum(values, *names) / ops

        def ms_per_op(*names):
            return 1e3 * self._sum(total, *names) / ops

        full = self._sum(count, "tls.connect")
        resumed = self._sum(amount, "tls.connect")
        lookups = self._sum(count, "vcache.lookup")
        return {
            "aead.setups_per_op": per_op(count, "gcm.setup"),
            "aead.setup_ms_per_op": ms_per_op("gcm.setup"),
            "aead.bytes_per_op": per_op(amount, "gcm.bulk"),
            "aead.bulk_ms_per_op": ms_per_op("gcm.bulk"),
            "ec.mults_per_op": per_op(count, "ec.mult"),
            "ec.ms_per_op": self_ms["crypto.ec"],
            "ecdsa.signs_per_op": per_op(count, "ecdsa.sign"),
            "ecdsa.verifies_per_op": per_op(count, "ecdsa.verify"),
            "hmac.keyed_per_op": per_op(count, "hmac.key"),
            "hmac.ms_per_op": self_ms["crypto.hmac"],
            "der.ms_per_op": ms_per_op("der"),
            "ca.issues_per_op": per_op(count, "ca.issue"),
            "ca.ms_per_op": ms_per_op("ca.issue", "ca.crl"),
            "tls.full_handshakes_per_op": (full - resumed) / ops,
            "tls.resumed_handshakes_per_op": resumed / ops,
            "tls.handshake_ms_per_op": ms_per_op("tls.connect"),
            "tls.records_per_op": per_op(count, "tls.record"),
            "tls.record_ms_per_op": ms_per_op("tls.record"),
            "tls.resume_ratio": resumed / full if full else 0.0,
            "simnet.connects_per_op": per_op(count, "simnet.connect"),
            "simnet.msgs_per_op": per_op(count, "simnet.send"),
            "simnet.bytes_per_op": per_op(amount, "simnet.send"),
            "simnet.self_ms_per_op": 1e3 * (
                self._sum(self.self_time, "simnet.connect", "simnet.send")
                / ops),
            "rest.ms_per_op": ms_per_op("rest.parse"),
            "enclave.ecalls_per_op": per_op(count, "enclave.ecall"),
            "enclave.self_ms_per_op": 1e3 * per_op(self.self_time,
                                                   "enclave.ecall"),
            "seal.ops_per_op": per_op(count, "seal"),
            "seal.ms_per_op": ms_per_op("seal"),
            "ias.verifies_per_op": per_op(count, "ias.verify"),
            "ias.ms_per_op": ms_per_op("ias.verify"),
            "vcache.hit_ratio": (self._sum(amount, "vcache.lookup") / lookups
                                 if lookups else 0.0),
            "appraisal.ms_per_op": ms_per_op("appraisal"),
            "vm.self_ms_per_op": 1e3 * per_op(self.self_time, "vm"),
            "kms.self_ms_per_op": 1e3 * per_op(self.self_time, "kms.op"),
            "kms.auth_ms_per_op": ms_per_op("kms.auth"),
            "kms.shard_ms_per_op": ms_per_op("kms.shard"),
            "kms.calls_per_op": per_op(count, "kms.op"),
            "sdn.controller_ms_per_op": ms_per_op("sdn.controller"),
            "fabric.msgs_per_revoke": (self._sum(amount, "fabric.revoke")
                                       / revokes if revokes else 0.0),
            "fabric.self_ms_per_revoke": (
                1e3 * self._sum(self.self_time, "fabric.revoke") / revokes
                if revokes else 0.0),
            "gc.pause_ms_per_op": 1e3 * self.gc_pause / ops,
            "gc.gen2_per_kop": 1e3 * self.gc_collections[2] / ops,
            "trace.unattributed_frac": (self.root_self / self.op_wall
                                        if self.op_wall else 0.0),
        }
