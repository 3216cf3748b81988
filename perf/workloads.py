"""The four benchmark workloads, driven only through the public API.

Each workload is a closed loop with one client thread: every call below
(``Deployment.enroll``, the enclave REST client, ``KmsClient``,
``TrustedFabric.revoke_vnf``) returns only once the reply is in, and the
next operation is planned after the previous one has been checked.

A workload has three parts:

* ``setup()`` builds the deployment the operations run against; it is a
  generator that yields after each costly step (a deployment build, an
  enrollment), so that set-up time can be scaled to the CPU's speed
  step by step;
* ``plan()`` draws the next operation from the workload's seeded
  ``random.Random``, so equal seeds give equal operation streams;
* ``execute(op)`` is the timed public-API call, and ``check(op, result)``
  (not timed) compares the result with a client-side model, feeds the
  outputs digest and returns the operation's payload bytes.

A mismatch is recorded in ``problems``; the benchmark then reports
``correct: false`` and exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import Deployment
from repro.errors import ReproError

SWITCHES = ("00:00:01", "00:00:02")


def _canonical(payload) -> bytes:
    """JSON bytes as the controller and the KMS encode their responses."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class Workload:
    """Base class: seeded inputs, outputs digest and problem list.

    Attributes:
        warmup_ops: operations run after ``setup()`` and before timing
            starts; they count toward set-up time.
        prefix_ops: the operation count whose outputs the digest, the
            simulated-time metrics and peak RSS cover, so those numbers
            do not depend on how many operations a timed run fits in.
        timed_kinds: operation kinds the latency percentiles cover.
    """

    name = ""
    warmup_ops = 0
    prefix_ops = 0
    timed_kinds: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.deployment_seed = self.rng.getrandbits(128).to_bytes(16, "big")
        self.digest = hashlib.sha256()
        self.problems: List[str] = []
        self.deployment: Optional[Deployment] = None
        self._decks: Dict[str, list] = {}

    @property
    def clock(self):
        return self.deployment.clock

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def deal(self, deck: str, cards) -> object:
        """The next card of a named deck, reshuffled when it runs out.

        Dealing operation kinds (and value sizes) from a deck keeps the
        mix exact over every full deck, so two seeds differ in order and
        targets but not in how much of each kind of work they do.
        """
        pile = self._decks.setdefault(deck, [])
        if not pile:
            pile.extend(cards)
            self.rng.shuffle(pile)
        return pile.pop()

    def setup(self) -> Iterator[None]:
        raise NotImplementedError

    def plan(self) -> tuple:
        raise NotImplementedError

    def execute(self, op: tuple):
        raise NotImplementedError

    def check(self, op: tuple, result) -> int:
        raise NotImplementedError

    def drain(self) -> float:
        """Simulated seconds of work still queued after the last
        operation returned (only the KMS shards queue work)."""
        return 0.0

    def finish(self) -> None:
        """End-of-run checks that need the whole history."""


class Onboard(Workload):
    """The paper's Figure 1 path: ``Deployment.enroll`` (steps 1-6).

    Thirty-two VNF containers on four hosts are enrolled round-robin; a
    VNF's controller session is closed after its enrollment is checked,
    so re-enrolling it later runs the same full path again.  Every
    enrollment generates fresh delivery, credential and handshake keys,
    so the curve's 128-entry per-point table cache never holds the keys
    it is asked about.
    """

    name = "onboard"
    vnf_count = 32
    host_count = 4
    warmup_ops = 4          # one per host
    prefix_ops = 60
    timed_kinds = ("enroll",)

    def setup(self) -> Iterator[None]:
        self.deployment = Deployment(
            seed=self.deployment_seed, vnf_count=self.vnf_count,
            host_count=self.host_count,
        )
        yield
        self._next = 0
        self._serials = set()
        self._ca_key = self.deployment.vm.ca.certificate.public_key

    def plan(self) -> tuple:
        names = self.deployment.vnf_names
        vnf = names[self._next % len(names)]
        self._next += 1
        return ("enroll", vnf)

    def execute(self, op: tuple):
        return self.deployment.enroll(op[1])

    def check(self, op: tuple, session) -> int:
        vnf = op[1]
        deployment = self.deployment
        certificate = deployment.vm.issued_certificate(vnf)
        if certificate.serial != session.certificate_serial:
            self.problem(f"{vnf}: session serial {session.certificate_serial}"
                         f" is not the issued {certificate.serial}")
        if certificate.serial in self._serials:
            self.problem(f"{vnf}: serial {certificate.serial} issued twice")
        self._serials.add(certificate.serial)
        try:
            certificate.verify_signature(self._ca_key)
        except ReproError as exc:
            self.problem(f"{vnf}: certificate does not verify: {exc}")
        if certificate.subject.common_name != vnf:
            self.problem(f"{vnf}: certificate names "
                         f"{certificate.subject.common_name}")
        der = certificate.to_bytes()
        self.digest.update(der)
        deployment.enclave_client(vnf).close()
        return len(der)


class Northbound(Workload):
    """Steady-state controller calls over persistent in-enclave sessions.

    Four enrolled VNFs on two hosts; each operation picks a VNF
    uniformly.  Of every 20 operations 9 are writes (``push_flow``, or
    ``delete_flow`` of the VNF's oldest rule once it holds 16), 9
    ``summary`` and 2 ``list_flows`` over the whole table of at most 64
    rules.  A list costs ~25x a summary; at 10 % the 95th latency
    percentile falls well inside the list ops, where at 5 % it would
    sit on the edge between the two modes.
    """

    name = "northbound"
    vnf_count = 4
    host_count = 2
    rules_per_vnf = 16
    warmup_ops = 200
    prefix_ops = 2000
    timed_kinds = ("push", "delete", "summary", "list")
    kinds = ("write",) * 9 + ("summary",) * 9 + ("list",) * 2

    def setup(self) -> Iterator[None]:
        deployment = Deployment(
            seed=self.deployment_seed, vnf_count=self.vnf_count,
            host_count=self.host_count,
        )
        self.deployment = deployment
        yield
        for vnf in deployment.vnf_names:
            deployment.enroll(vnf)
            yield
        self._clients = {vnf: deployment.enclave_client(vnf)
                         for vnf in deployment.vnf_names}
        self._live: Dict[str, deque] = {vnf: deque()
                                        for vnf in deployment.vnf_names}
        self._rules: Dict[str, tuple] = {}
        self._counter = 0
        # Enrollment's step 6 is a summary call, not a push.
        self._pushes = 0

    def _mac(self) -> str:
        return "02:" + ":".join(f"{self.rng.randrange(256):02x}"
                                for _ in range(5))

    def plan(self) -> tuple:
        rng = self.rng
        vnf = rng.choice(self.deployment.vnf_names)
        kind = self.deal("kind", self.kinds)
        if kind == "write":
            live = self._live[vnf]
            if len(live) >= self.rules_per_vnf:
                return ("delete", vnf, live[0])
            self._counter += 1
            return ("push", vnf, f"{vnf}-f{self._counter}",
                    rng.choice(SWITCHES),
                    {"eth_src": self._mac(), "eth_dst": self._mac()},
                    f"output:{rng.randrange(1, 4)}",
                    rng.randrange(100, 200))
        return (kind, vnf)

    def execute(self, op: tuple):
        client = self._clients[op[1]]
        kind = op[0]
        if kind == "push":
            _, _, name, switch, match, actions, priority = op
            return client.push_flow(switch, name, match, actions, priority)
        if kind == "delete":
            return client.delete_flow(op[2])
        if kind == "summary":
            return client.summary()
        return client.list_flows()

    def check(self, op: tuple, result) -> int:
        kind, vnf = op[0], op[1]
        body = _canonical(result)
        self.digest.update(body)
        sent = 0
        if kind == "push":
            _, _, name, switch, match, actions, priority = op
            sent = len(json.dumps({"switch": switch, "name": name,
                                   "match": match, "actions": actions,
                                   "priority": priority}))
            self._expect_ack(result, "Entry pushed", vnf)
            self._live[vnf].append(name)
            self._rules[name] = (switch, priority,
                                 tuple(sorted(match.items())), (actions,))
            self._pushes += 1
        elif kind == "delete":
            sent = len(json.dumps({"name": op[2]}))
            self._expect_ack(result, "Entry deleted", vnf)
            self._live[vnf].popleft()
            del self._rules[op[2]]
        elif kind == "summary":
            if (result.get("flowsPushed") != self._pushes
                    or result.get("switches") != len(SWITCHES)):
                self.problem(f"summary {result} does not match the model "
                             f"({self._pushes} pushes)")
        else:
            listed = {
                rule["name"]: (dpid, rule["priority"],
                               tuple(sorted(rule["match"].items())),
                               tuple(rule["actions"]))
                for dpid, rules in result.items() for rule in rules
            }
            if listed != self._rules:
                self.problem(f"list_flows returned {len(listed)} rules that "
                             f"differ from the model's {len(self._rules)}")
        return sent + len(body)

    def _expect_ack(self, result: dict, status: str, vnf: str) -> None:
        if result != {"status": status, "by": vnf}:
            self.problem(f"{vnf}: expected {status!r}, got {result}")


class Kms(Workload):
    """Sealed-secret operations over the KMS REST API (no TLS, no EC).

    Eight enrolled VNFs, four shards, and eight tenants, each authorized
    by one VNF's certificate and using a 64-name space.  Of every 20
    operations 10 fetch a name the model holds, 5 store a value, 2
    generate, 2 delete and 1 lists names.  Stored values are 32, 256 or
    4096 bytes in equal shares, and fetches target the three sizes in
    equal shares too (a 32-byte secret when the tenant holds none of
    the drawn size).
    """

    name = "kms"
    vnf_count = 8
    host_count = 2
    shard_count = 4
    names_per_tenant = 64
    value_sizes = (32, 256, 4096)
    generate_length = 32
    warmup_ops = 200
    prefix_ops = 3000
    timed_kinds = ("fetch", "store", "generate", "delete", "names")
    kinds = (("fetch",) * 10 + ("store",) * 5 + ("generate",) * 2
             + ("delete",) * 2 + ("names",))

    def setup(self) -> Iterator[None]:
        deployment = Deployment(
            seed=self.deployment_seed, vnf_count=self.vnf_count,
            host_count=self.host_count,
        )
        self.deployment = deployment
        yield
        for vnf in deployment.vnf_names:
            deployment.enroll(vnf)
            yield
        self.kms = deployment.build_kms(shard_count=self.shard_count,
                                        seed=self.deployment_seed)
        yield
        self._clients = {}
        self._tokens = {}
        for index, vnf in enumerate(deployment.vnf_names):
            tenant = f"tenant-{index}"
            self.kms.create_tenant(tenant)
            token = self.kms.authorize(tenant,
                                       deployment.vm.issued_certificate(vnf))
            self._tokens[tenant] = token
            self._clients[tenant] = deployment.kms_client(
                tenant, token, source_host=deployment.vnf_host[vnf].name)
        self.tenants = sorted(self._clients)
        # tenant -> {name: value, or None for a generated value not yet read}
        self._model: Dict[str, Dict[str, Optional[bytes]]] = {
            tenant: {} for tenant in self.tenants}

    def plan(self) -> tuple:
        rng = self.rng
        tenant = rng.choice(self.tenants)
        held = self._model[tenant]
        kind = self.deal("kind", self.kinds)
        if kind == "fetch" and held:
            return ("fetch", tenant, self._fetch_target(held))
        if kind == "generate":
            return ("generate", tenant, self._secret_name())
        if kind == "delete" and held:
            return ("delete", tenant, rng.choice(sorted(held)))
        if kind == "names":
            return ("names", tenant)
        size = self.deal("store-size", self.value_sizes)
        return ("store", tenant, self._secret_name(), rng.randbytes(size))

    def _fetch_target(self, held: Dict[str, Optional[bytes]]) -> str:
        size = self.deal("fetch-size", self.value_sizes)
        names = sorted(
            name for name, value in held.items()
            if (self.generate_length if value is None else len(value)) == size)
        return self.rng.choice(names or sorted(held))

    def _secret_name(self) -> str:
        return f"s{self.rng.randrange(self.names_per_tenant):02d}"

    def execute(self, op: tuple):
        client = self._clients[op[1]]
        kind = op[0]
        if kind == "fetch":
            return client.fetch(op[2])
        if kind == "store":
            return client.store(op[2], op[3])
        if kind == "generate":
            return client.generate(op[2], self.generate_length)
        if kind == "delete":
            return client.delete(op[2])
        return client.names()

    def check(self, op: tuple, result) -> int:
        kind, tenant = op[0], op[1]
        model = self._model[tenant]
        if kind == "fetch":
            name = op[2]
            expected = model[name]
            if expected is None:
                if len(result) != self.generate_length:
                    self.problem(f"{tenant}/{name}: generated value has "
                                 f"{len(result)} bytes")
                model[name] = result
            elif result != expected:
                self.problem(f"{tenant}/{name}: fetch returned a value "
                             "other than the last one stored")
            self.digest.update(result)
            return len(result)
        if kind == "store":
            model[op[2]] = op[3]
            return len(op[3])
        if kind == "generate":
            model[op[2]] = None
            return 0
        if kind == "delete":
            del model[op[2]]
            return 0
        if result != sorted(model):
            self.problem(f"{tenant}: names {result} do not match the model")
        listing = "\n".join(result).encode()
        self.digest.update(listing)
        return len(listing)

    def drain(self) -> float:
        before = self.clock.now()
        return self.kms.quiesce() - before

    def finish(self) -> None:
        owner, victim = self.tenants[0], self.tenants[1]
        foreign = self.deployment.kms_client(victim, self._tokens[owner])
        try:
            foreign.names()
        except ReproError:
            pass
        else:
            self.problem(f"{owner}'s token read {victim}'s namespace")


class RevokeChurn(Workload):
    """Session re-establishment plus fabric-wide revocation.

    32 live VNFs on four hosts behind a four-replica fabric with 64
    endpoint switches; half enroll through the fabric (CA-issued
    credentials, trusted-HTTPS), half over RA-TLS.  A reconnect op
    closes one VNF's in-enclave session and sends a ``summary``, which
    resumes the TLS session past the CRL and RA-TLS resumption checks;
    reconnects deal the live VNFs from a deck, so each reconnects
    equally often.  Every 200th op instead revokes a random live VNF
    through ``TrustedFabric.revoke_vnf``, alternating between the two
    enrollment paths; that VNF's next reconnect must be refused.

    The work per op must not drift with how many ops a timed run fits
    in, so after each revocation one of 64 spare VNFs enrolls (outside
    the timed op) on the revoked VNF's path, and the live set stays at
    16 + 16.  A revoked name cannot come back: the fabric and the RA-TLS
    verifier deny it for good.  Once the spares run out, revocations
    stop.
    """

    name = "revoke_churn"
    live_count = 32
    spare_count = 64
    host_count = 4
    replica_count = 4
    endpoint_count = 64
    revoke_every = 200
    warmup_ops = 100
    prefix_ops = 1000
    timed_kinds = ("reconnect",)

    def setup(self) -> Iterator[None]:
        deployment = Deployment(
            seed=self.deployment_seed,
            vnf_count=self.live_count + self.spare_count,
            host_count=self.host_count,
        )
        self.deployment = deployment
        yield
        self.fabric = deployment.build_fabric(
            replica_count=self.replica_count,
            endpoint_count=self.endpoint_count)
        deployment.build_ratls()
        yield
        names = deployment.vnf_names
        self._ratls = set()
        for number, vnf in enumerate(names[:self.live_count], start=1):
            self._enroll(vnf, "ca" if number % 2 == 0 else "ratls")
            yield
        self._spares = deque(names[self.live_count:])
        self.live = list(names[:self.live_count])
        self.revoked: List[str] = []
        self._planned = 0

    def _enroll(self, vnf: str, path: str) -> None:
        if path == "ca":
            self.deployment.enroll_fabric(vnf)
        else:
            self.deployment.enroll_ratls(vnf)
            self._ratls.add(vnf)

    def plan(self) -> tuple:
        self._planned += 1
        if self._planned % self.revoke_every == 0 and self._spares:
            turn = self._planned // self.revoke_every
            path = "ca" if turn % 2 else "ratls"
            vnf = self.rng.choice([v for v in self.live
                                   if (v in self._ratls) == (path == "ratls")])
            self.live.remove(vnf)
            return (f"revoke-{path}", vnf)
        vnf = self.deal("reconnect", self.live)
        while vnf not in self.live:     # revoked since the deck was dealt
            vnf = self.deal("reconnect", self.live)
        return ("reconnect", vnf)

    def execute(self, op: tuple):
        if op[0] != "reconnect":
            return self.fabric.revoke_vnf(op[1])
        client = self.deployment.enclave_client(op[1])
        client.close()
        return client.summary()

    def check(self, op: tuple, result) -> int:
        if op[0] == "reconnect":
            body = _canonical(result)
            if result.get("controller") != "floodlight":
                self.problem(f"{op[1]}: unexpected summary {result}")
            self.digest.update(body)
            return len(body)
        if result.switches_reached != self.endpoint_count + len(SWITCHES):
            self.problem(f"revoking {op[1]} reached "
                         f"{result.switches_reached} switches")
        self.digest.update(f"{op[1]}:{result.total_seconds!r}".encode())
        self.revoked.append(op[1])
        self._expect_refused(op[1])
        spare = self._spares.popleft()
        self._enroll(spare, op[0][len("revoke-"):])
        self.live.append(spare)
        return 0

    def _expect_refused(self, vnf: str) -> None:
        client = self.deployment.enclave_client(vnf)
        client.close()
        try:
            client.summary()
        except ReproError:
            return
        self.problem(f"revoked {vnf} opened a controller session")

    def finish(self) -> None:
        for vnf in self.revoked:
            self._expect_refused(vnf)
        digests = set(self.fabric.keystore_digests().values())
        if len(digests) != 1:
            self.problem(f"live replicas disagree: {len(digests)} "
                         "keystore digests")


WORKLOADS = {cls.name: cls for cls in (Onboard, Northbound, Kms, RevokeChurn)}
