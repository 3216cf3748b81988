"""The trusted SDN fabric: replicated controllers, failover, fan-out.

This is the TruSDN-scale control plane (ROADMAP open item 5): N
:class:`~repro.sdn.controller.FloodlightController` replicas share one
forwarding-plane :class:`~repro.sdn.topology.Topology` and replicate a
CA-cert keystore through a leader-based log (:mod:`repro.sdn.replication`)
over the simulated network.  Every endpoint switch is *homed* on one
replica; a replica crash (injected with
:meth:`~repro.net.faults.FaultPlan.crash_host`) is survived by
:meth:`TrustedFabric.converge`, which probes the replicas over the
network, re-syncs stragglers, elects the lowest live rank leader and
re-homes orphaned switches round-robin across the survivors.

Revocation fan-out: :meth:`TrustedFabric.revoke_vnf` /
:meth:`TrustedFabric.distrust_host` first delegate to the Verification
Manager when one is attached (CA revocation + CRL push + RA-TLS session
eviction, exactly the single-controller semantics), then replicate the
revocation to every live replica and push it to every homed switch.
Per-switch pushes are charged on each replica's *private* pipeline
timeline (the KMS shard model), so fan-out latency scales with
``switches / replicas``, not ``switches`` — experiment E15 measures
this at 1k endpoints.

Determinism: the fabric draws no randomness and consumes no CA serials
— building a fabric and enrolling through it leaves the deployment's
credential bytes identical to the single-controller path (gated in
E15).  All simulated costs are charged to dedicated clock accounts
(``fabric-probe``, ``fabric-fanout``, ``fabric-converge``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.sanitizer import make_lock
from repro.errors import (
    ChannelClosed,
    ConnectionRefused,
    ControllerUnavailable,
    FabricError,
    NetError,
    ReplicationError,
    RevocationError,
)
from repro.net.address import Address
from repro.net.simnet import Network
from repro.net.transport import ClientStream, serve_frames
from repro.sdn.controller import FloodlightController
from repro.sdn.replication import (
    K_ANCHOR,
    K_CREDENTIAL,
    K_DISTRUST,
    K_REVOKE,
    FabricKeystore,
    LogEntry,
    ReplicationLog,
    credential_payload,
)
from repro.sdn.switch import Switch
from repro.sdn.topology import Topology

#: Replication/management port every replica listens on (OpenFlow's).
REPLICATION_PORT = 6653

#: Simulated cost of pushing one revocation update to one homed switch,
#: charged on the home replica's private timeline (pipelined, so R
#: replicas push to their switch shares in parallel).
PUSH_COST = 20e-6

#: Simulated cost of adopting one orphaned switch during failover
#: (handler takeover + full revocation-view sync).
REHOME_COST = 0.002

#: Simulated time burned establishing that a dead replica is dead (a
#: refused connect is otherwise free on the virtual clock).
PROBE_TIMEOUT = 0.002

ACCOUNT_PROBE = "fabric-probe"
ACCOUNT_FANOUT = "fabric-fanout"
ACCOUNT_CONVERGE = "fabric-converge"


@dataclass
class FanoutReport:
    """What one replicated revocation did, and what it cost."""

    kind: str
    subjects: List[str] = field(default_factory=list)
    acked_ranks: List[int] = field(default_factory=list)
    unreachable_ranks: List[int] = field(default_factory=list)
    switches_reached: int = 0
    switches_stale: int = 0
    replication_seconds: float = 0.0
    drain_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass
class ConvergenceReport:
    """What :meth:`TrustedFabric.converge` observed and repaired."""

    crashed_ranks: List[int] = field(default_factory=list)
    live_ranks: List[int] = field(default_factory=list)
    new_leader: int = 0
    synced_ranks: List[int] = field(default_factory=list)
    switches_rehomed: int = 0
    probes: int = 0
    seconds: float = 0.0


def _call_replica(network: Network, source_host: str, address: Address,
                  payload: Dict[str, object]) -> Dict[str, object]:
    """One JSON request/reply with the replica at ``address``, on a
    connection of its own."""
    with ClientStream(lambda: network.connect(source_host, address)) as stream:
        reply = stream.exchange_frame(
            json.dumps(payload, sort_keys=True).encode("utf-8"))
    return json.loads(reply.decode("utf-8"))


class ControllerReplica:
    """One controller replica: a Floodlight core plus the replication
    endpoint serving the log/keystore protocol on the sim network.

    The ``_lock`` (domain ``fabric``) guards only the pipeline timeline
    ``_busy_until``; log and keystore have their own leaf locks.
    """

    def __init__(self, rank: int, network: Network, host: str,
                 topology: Topology,
                 controller: Optional[FloodlightController] = None) -> None:
        self.rank = rank
        self.host = host
        self.address = Address(host, REPLICATION_PORT)
        self.controller = controller or FloodlightController(
            name=f"floodlight-r{rank}", topology=topology
        )
        self.log = ReplicationLog()
        self.keystore = FabricKeystore()
        self.entries_replicated = 0
        self._network = network
        self._clock = network.clock
        self._peers: List[Tuple[int, Address]] = []
        self._suspected: Set[int] = set()
        self._busy_until = 0.0
        self._lock = make_lock("fabric")
        serve_frames(network, self.address, self._respond)

    # ------------------------------------------------------------- timeline

    def occupy(self, now: float, cost: float) -> float:
        """Queue ``cost`` seconds of work on this replica's pipeline;
        returns the completion time (the KMS shard-time model)."""
        with self._lock:
            start = now if now > self._busy_until else self._busy_until
            self._busy_until = start + cost
            return self._busy_until

    def busy_until(self) -> float:
        with self._lock:
            return self._busy_until

    # ----------------------------------------------------------- membership

    def set_peers(self, peers: List[Tuple[int, Address]]) -> None:
        """Install the replication peer set (every other replica)."""
        self._peers = [(rank, address) for rank, address in peers
                       if rank != self.rank]

    def set_suspected(self, ranks: Set[int]) -> None:
        """Replace the suspected-dead peer set (converge() resets it to
        the probe-verified crash list, restoring replication to peers
        that were only transiently unreachable)."""
        self._suspected = set(ranks)

    # -------------------------------------------------------------- serving

    def _respond(self, frame: bytes) -> bytes:
        try:
            request = json.loads(frame.decode("utf-8"))
        except ValueError:
            reply = {"ok": False, "error": "malformed request"}
        else:
            reply = self._handle(request)
        return json.dumps(reply, sort_keys=True).encode("utf-8")

    def _handle(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        if op == "status":
            return {
                "ok": True,
                "rank": self.rank,
                "lastIndex": self.log.last_index,
                "digest": self.keystore.digest().hex(),
            }
        if op == "append":
            try:
                entries = [LogEntry.from_wire(e)
                           for e in request.get("entries", [])]
                revoked = self.apply_entries(entries)
            except ReplicationError:
                return {"ok": False, "needFrom": self.log.last_index}
            return {"ok": True, "lastIndex": self.log.last_index,
                    "revoked": revoked}
        if op == "sync":
            after = int(request.get("after", 0))
            return {"ok": True, "entries": [
                entry.to_wire() for entry in self.log.entries_after(after)
            ]}
        if op == "propose":
            entry = self.log.append(
                str(request["kind"]), str(request["subject"]),
                bytes.fromhex(str(request.get("payload", ""))),
            )
            revoked = self.keystore.apply(entry)
            acked, unreachable = self._replicate([entry])
            return {"ok": True, "entry": entry.to_wire(), "revoked": revoked,
                    "acked": acked, "unreachable": unreachable}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def apply_entries(self, entries: List[LogEntry]) -> List[str]:
        """Append a contiguous suffix and fold it into the keystore.

        Returns every subject the new entries revoked (fan-out set)."""
        revoked: List[str] = []
        for entry in entries:
            before = self.log.last_index
            self.log.extend([entry])
            if self.log.last_index > before:
                self.entries_replicated += 1
                revoked.extend(self.keystore.apply(entry))
        return revoked

    # ---------------------------------------------------- leader replication

    def _replicate(self, entries: List[LogEntry]
                   ) -> Tuple[List[int], List[int]]:
        """Ship ``entries`` to every non-suspected peer; returns
        ``(acked_ranks, unreachable_ranks)``.  A follower that reports a
        gap is caught up with the full missing suffix in one exchange."""
        wire = [entry.to_wire() for entry in entries]
        acked: List[int] = []
        unreachable: List[int] = []
        for rank, address in self._peers:
            if rank in self._suspected:
                unreachable.append(rank)
                continue
            try:
                reply = _call_replica(self._network, self.host, address,
                                      {"op": "append", "entries": wire})
                if not reply.get("ok"):
                    suffix = self.log.entries_after(
                        int(reply.get("needFrom", 0)))
                    reply = _call_replica(
                        self._network, self.host, address,
                        {"op": "append",
                         "entries": [e.to_wire() for e in suffix]})
            except (ConnectionRefused, ChannelClosed, NetError):
                self._clock.advance(PROBE_TIMEOUT, ACCOUNT_PROBE)
                self._suspected.add(rank)
                unreachable.append(rank)
                continue
            if reply.get("ok"):
                acked.append(rank)
            else:
                unreachable.append(rank)
        return acked, unreachable


class TrustedFabric:
    """N controller replicas + homed switches + the replicated keystore.

    Args:
        network: the simulated network (its clock paces everything).
        replica_count: number of controller replicas (>= 2 for failover).
        topology: shared forwarding-plane view; created when omitted.
        primary_controller: an existing controller to wrap as rank 0
            (the deployment path — its switches stay homed on it).
        vm: optional :class:`~repro.core.verification_manager.
            VerificationManager`; when attached, fabric revocations
            delegate to it first (CA + CRL + RA-TLS eviction).
        client_host: source host name for management-plane dials.
    """

    def __init__(self, network: Network, replica_count: int = 3,
                 topology: Optional[Topology] = None,
                 primary_controller: Optional[FloodlightController] = None,
                 vm=None, client_host: str = "fabric-manager",
                 host_prefix: str = "controller-r") -> None:
        if replica_count < 1:
            raise FabricError("need at least one controller replica")
        self.network = network
        self.clock = network.clock
        self.topology = topology if topology is not None else Topology()
        self.client_host = client_host
        self._vm = vm
        self._by_rank: Dict[int, ControllerReplica] = {}
        self._switches: Dict[str, Switch] = {}
        self._homes: Dict[str, int] = {}
        self._switch_revoked: Dict[str, Set[str]] = {}
        self._switch_sessions: Dict[str, Set[str]] = {}
        self._crashed: Set[int] = set()
        self._leader_rank = 0
        self._endpoint_counter = 0
        self._lock = make_lock("fabric")

        for rank in range(replica_count):
            controller = primary_controller if rank == 0 else None
            replica = ControllerReplica(
                rank, network, f"{host_prefix}{rank}", self.topology,
                controller=controller,
            )
            self._by_rank[rank] = replica
        peers = [(rank, replica.address)
                 for rank, replica in sorted(self._by_rank.items())]
        for replica in self._by_rank.values():
            replica.set_peers(peers)
            replica.controller.fabric_status = (
                lambda rank=replica.rank: self.status(rank)
            )
        # Switches already registered on the primary controller stay
        # homed on rank 0 — they were its responsibility before the
        # fabric existed.
        for switch in self.topology.switches():
            self._adopt_bookkeeping(switch, 0)

    # ------------------------------------------------------------ accessors

    @property
    def replica_count(self) -> int:
        return len(self._by_rank)

    def replica(self, rank: int) -> ControllerReplica:
        try:
            return self._by_rank[rank]
        except KeyError as exc:
            raise FabricError(f"no replica with rank {rank}") from exc

    def replicas(self) -> List[ControllerReplica]:
        return [self._by_rank[rank] for rank in sorted(self._by_rank)]

    @property
    def leader_rank(self) -> int:
        return self._leader_rank

    def switch_count(self) -> int:
        with self._lock:
            return len(self._switches)

    def home_of(self, dpid: str) -> int:
        with self._lock:
            try:
                return self._homes[dpid]
            except KeyError as exc:
                raise FabricError(f"switch {dpid!r} is not homed") from exc

    def crashed_ranks(self) -> Set[int]:
        with self._lock:
            return set(self._crashed)

    def keystore_digests(self) -> Dict[int, str]:
        """Keystore state digest per *live* replica (E15's identity gate)."""
        crashed = self.crashed_ranks()
        return {
            rank: replica.keystore.digest().hex()
            for rank, replica in sorted(self._by_rank.items())
            if rank not in crashed
        }

    def status(self, rank: int) -> Dict[str, object]:
        """The ``/wm/fabric/status/json`` payload, as seen by ``rank``."""
        replica = self.replica(rank)
        with self._lock:
            crashed = sorted(self._crashed)
            homed = sum(1 for home in self._homes.values() if home == rank)
            leader = self._leader_rank
        return {
            "rank": rank,
            "replicas": len(self._by_rank),
            "leader": leader,
            "crashedSeen": crashed,
            "switchesHomed": homed,
            "lastIndex": replica.log.last_index,
            "keystore": replica.keystore.counts(),
            "digest": replica.keystore.digest().hex(),
        }

    # ------------------------------------------------------------ endpoints

    def add_endpoints(self, count: int, prefix: str = "ep") -> List[str]:
        """Create ``count`` endpoint switches, homed round-robin across
        the replicas; returns their dpids.  Build-time registration is
        free on the clock (E15 charges only steady-state operations)."""
        ranks = sorted(self._by_rank)
        dpids: List[str] = []
        for _ in range(count):
            self._endpoint_counter += 1
            dpid = f"{prefix}{self._endpoint_counter:05d}"
            switch = Switch(dpid)
            rank = ranks[(self._endpoint_counter - 1) % len(ranks)]
            self._by_rank[rank].controller.register_switch(switch)
            self._adopt_bookkeeping(switch, rank)
            dpids.append(dpid)
        return dpids

    def _adopt_bookkeeping(self, switch: Switch, rank: int) -> None:
        with self._lock:
            self._switches[switch.dpid] = switch
            self._homes[switch.dpid] = rank
            self._switch_revoked.setdefault(switch.dpid, set())
            self._switch_sessions.setdefault(switch.dpid, set())

    # ----------------------------------------------- attested session model

    def open_session(self, dpid: str, subject: str) -> bool:
        """A VNF identified by ``subject`` opens an attested session
        through ``dpid``; refused when the subject is revoked anywhere
        the switch can see (its own view or its live home's keystore)."""
        home = self.home_of(dpid)
        if not self._home_validates(dpid, home, subject):
            return False
        with self._lock:
            self._switch_sessions[dpid].add(subject)
        return True

    def session_resumable(self, dpid: str, subject: str) -> bool:
        """Can an existing attested session resume through ``dpid``?

        Resumption revalidates against the switch's *home* controller:
        a revoked view entry, a dead home, or a revocation in the home's
        keystore all force re-attestation (deny).  This is the fabric
        analogue of PR 7's resumption-safe revocation.
        """
        with self._lock:
            if subject not in self._switch_sessions.get(dpid, set()):
                return False
        home = self.home_of(dpid)
        return self._home_validates(dpid, home, subject)

    def _home_validates(self, dpid: str, home: int, subject: str) -> bool:
        with self._lock:
            if subject in self._switch_revoked.get(dpid, set()):
                return False
        replica = self._by_rank[home]
        try:
            channel = self.network.connect(f"switch:{dpid}", replica.address)
        except (ConnectionRefused, ChannelClosed):
            # No live controller to validate against: deny (and pay for
            # discovering it).
            self.clock.advance(PROBE_TIMEOUT, ACCOUNT_PROBE)
            return False
        channel.close()
        return not replica.keystore.is_revoked(subject)

    def sessions_for(self, subject: str) -> List[str]:
        """Dpids currently holding a session for ``subject``."""
        with self._lock:
            return sorted(dpid for dpid, subjects
                          in self._switch_sessions.items()
                          if subject in subjects)

    # ------------------------------------------------------- replicated ops

    def anchor_ca(self, name: str, certificate: bytes) -> LogEntry:
        """Replicate a CA trust anchor to every replica's keystore."""
        reply = self._propose(K_ANCHOR, name, certificate)
        return LogEntry.from_wire(reply["entry"])

    def submit_credential(self, subject: str, certificate: bytes,
                          host: str = "") -> LogEntry:
        """Replicate an issued credential certificate fabric-wide.

        ``host`` is the container host the credential is enrolled on —
        the key :meth:`distrust_host` revokes by."""
        payload = credential_payload(host, certificate)
        reply = self._propose(K_CREDENTIAL, subject, payload)
        self._count_replication(K_CREDENTIAL)
        return LogEntry.from_wire(reply["entry"])

    def credential(self, subject: str, rank: Optional[int] = None
                   ) -> Optional[bytes]:
        """The replicated certificate bytes, read from one replica
        (default: the current leader)."""
        replica = self._by_rank[self._leader_rank if rank is None else rank]
        return replica.keystore.credential(subject)

    def revoke_vnf(self, subject: str, reason: str = "unspecified"
                   ) -> FanoutReport:
        """Revoke a credential fabric-wide: Verification Manager first
        (CA + CRL + RA-TLS session eviction) when attached, then log
        replication to every live replica and fan-out to every homed
        switch.  Returns the measured :class:`FanoutReport`."""
        with self.clock.telemetry.span("fabric-revocation-fanout",
                                       subject=subject, kind=K_REVOKE):
            if self._vm is not None:
                try:
                    self._vm.revoke_vnf(subject, reason)
                except RevocationError:
                    # Fabric-only credential (never VM-enrolled): the
                    # replicated revocation below is the whole story.
                    pass
            return self._replicate_and_fan_out(K_REVOKE, subject, b"")

    def distrust_host(self, host: str) -> FanoutReport:
        """Distrust a container host fabric-wide: every credential
        enrolled on it is revoked on every replica and evicted from
        every switch (the containment property, at fabric scale)."""
        with self.clock.telemetry.span("fabric-revocation-fanout",
                                       subject=host, kind=K_DISTRUST):
            if self._vm is not None:
                try:
                    self._vm.distrust_host(host)
                except RevocationError:
                    pass
            return self._replicate_and_fan_out(K_DISTRUST, host, b"")

    def _replicate_and_fan_out(self, kind: str, subject: str,
                               payload: bytes) -> FanoutReport:
        sim_start = self.clock.now()
        reply = self._propose(kind, subject, payload)
        replication_seconds = self.clock.now() - sim_start
        self._count_replication(kind)
        subjects = [str(s) for s in reply.get("revoked", [])]
        report = self._fanout(kind, subjects,
                              [int(r) for r in reply.get("acked", [])],
                              [int(r) for r in reply.get("unreachable", [])])
        report.replication_seconds = replication_seconds
        report.total_seconds = self.clock.now() - sim_start
        self.clock.telemetry.fabric_fanout_seconds.labels(kind=kind).observe(
            report.total_seconds
        )
        return report

    def _fanout(self, kind: str, subjects: List[str], acked: List[int],
                unreachable: List[int]) -> FanoutReport:
        """Push revoked subjects to every switch homed on a replica that
        holds the entry; pushes are pipelined per replica."""
        report = FanoutReport(kind=kind, subjects=list(subjects))
        report.acked_ranks = sorted(set(acked) | {self._leader_rank})
        report.unreachable_ranks = sorted(unreachable)
        drain_start = self.clock.now()
        if subjects:
            reached_set = set(report.acked_ranks)
            with self._lock:
                homes = sorted(self._homes.items())
            for dpid, rank in homes:
                if rank not in reached_set:
                    report.switches_stale += 1
                    continue
                self._by_rank[rank].occupy(drain_start, PUSH_COST)
                with self._lock:
                    self._switch_revoked[dpid].update(subjects)
                    self._switch_sessions[dpid].difference_update(subjects)
                report.switches_reached += 1
            self._drain(ACCOUNT_FANOUT)
        report.drain_seconds = self.clock.now() - drain_start
        return report

    def _count_replication(self, kind: str) -> None:
        self.clock.telemetry.fabric_replications.labels(kind=kind).inc()

    # -------------------------------------------------------------- propose

    def _propose(self, kind: str, subject: str,
                 payload: bytes) -> Dict[str, object]:
        """Submit one operation to the current leader, failing over to
        the next live rank when the leader is unreachable."""
        order = sorted(self._by_rank)
        if self._leader_rank in order:
            order.remove(self._leader_rank)
            order.insert(0, self._leader_rank)
        for rank in order:
            replica = self._by_rank[rank]
            try:
                reply = self._exchange(replica.address, {
                    "op": "propose", "kind": kind, "subject": subject,
                    "payload": payload.hex(),
                })
            except (ConnectionRefused, ChannelClosed):
                self.clock.advance(PROBE_TIMEOUT, ACCOUNT_PROBE)
                with self._lock:
                    self._crashed.add(rank)
                continue
            if not reply.get("ok"):
                raise FabricError(
                    f"replica {rank} rejected {kind}: {reply.get('error')}"
                )
            self._leader_rank = rank
            with self._lock:
                self._crashed.discard(rank)
            return reply
        raise ControllerUnavailable("no live fabric replica to lead")

    def _exchange(self, address: Address,
                  payload: Dict[str, object]) -> Dict[str, object]:
        return _call_replica(self.network, self.client_host, address,
                             payload)

    # ------------------------------------------------------------- failover

    def crash_replica(self, rank: int) -> None:
        """Crash one replica for the rest of the run (installs a
        host-level fault; detection stays network-driven)."""
        replica = self.replica(rank)
        faults = self.network.faults
        if faults is None:
            from repro.net.faults import FaultPlan

            faults = self.network.install_faults(FaultPlan())
        faults.crash_host(replica.host)

    def converge(self) -> ConvergenceReport:
        """Probe every replica, re-sync live stragglers, elect the
        lowest live rank leader, and re-home every switch whose home is
        dead — round-robin across the survivors, with each adoption
        charged on the adopter's private timeline.

        A re-homed switch's revocation view is synced from its new
        home's keystore *before* it serves again, so a revocation that
        fanned out while the switch's old home was dead still reaches it
        (the hypothesis property in ``tests/property`` pins this).
        """
        tel = self.clock.telemetry
        with tel.span("fabric-converge"):
            report = ConvergenceReport()
            sim_start = self.clock.now()
            statuses: Dict[int, Dict[str, object]] = {}
            for rank in sorted(self._by_rank):
                report.probes += 1
                replica = self._by_rank[rank]
                try:
                    status = self._exchange(replica.address, {"op": "status"})
                except (ConnectionRefused, ChannelClosed):
                    self.clock.advance(PROBE_TIMEOUT, ACCOUNT_PROBE)
                    report.crashed_ranks.append(rank)
                    continue
                statuses[rank] = status
                report.live_ranks.append(rank)
            if not report.live_ranks:
                raise ControllerUnavailable("every fabric replica is down")
            crashed_set = set(report.crashed_ranks)
            with self._lock:
                self._crashed = set(crashed_set)

            # Bring stragglers up to the freshest live log.
            freshest = max(report.live_ranks,
                           key=lambda r: (int(statuses[r]["lastIndex"]), -r))
            target = int(statuses[freshest]["lastIndex"])
            for rank in report.live_ranks:
                behind = int(statuses[rank]["lastIndex"])
                if behind >= target:
                    continue
                suffix = self._exchange(self._by_rank[freshest].address,
                                        {"op": "sync", "after": behind})
                self._exchange(self._by_rank[rank].address,
                               {"op": "append",
                                "entries": suffix.get("entries", [])})
                report.synced_ranks.append(rank)

            report.new_leader = report.live_ranks[0]
            self._leader_rank = report.new_leader
            for rank in report.live_ranks:
                self._by_rank[rank].set_suspected(crashed_set)

            # Re-home orphaned switches round-robin over the survivors.
            with self._lock:
                orphaned = sorted(dpid for dpid, home in self._homes.items()
                                  if home in crashed_set)
            for index, dpid in enumerate(orphaned):
                rank = report.live_ranks[index % len(report.live_ranks)]
                self._rehome(dpid, rank)
                report.switches_rehomed += 1
            if orphaned:
                self._drain(ACCOUNT_CONVERGE)
            report.seconds = self.clock.now() - sim_start
            tel.fabric_convergence_seconds.observe(report.seconds)
            if report.switches_rehomed:
                tel.fabric_rehomes.inc(report.switches_rehomed)
            return report

    def _rehome(self, dpid: str, rank: int) -> None:
        replica = self._by_rank[rank]
        replica.occupy(self.clock.now(), REHOME_COST)
        with self._lock:
            switch = self._switches[dpid]
        replica.controller.adopt_switch(switch)
        revoked = replica.keystore.revoked_subjects()
        with self._lock:
            self._homes[dpid] = rank
            self._switch_revoked[dpid].update(revoked)
            self._switch_sessions[dpid].difference_update(revoked)

    def _drain(self, account: str) -> None:
        """Advance the global clock to the last replica's completion
        time (replicas worked their pipelines in parallel)."""
        target = max(replica.busy_until()
                     for replica in self._by_rank.values())
        delta = target - self.clock.now()
        if delta > 0:
            self.clock.advance(delta, account)


__all__ = [
    "ACCOUNT_CONVERGE",
    "ACCOUNT_FANOUT",
    "ACCOUNT_PROBE",
    "ControllerReplica",
    "ConvergenceReport",
    "FanoutReport",
    "PROBE_TIMEOUT",
    "PUSH_COST",
    "REHOME_COST",
    "REPLICATION_PORT",
    "TrustedFabric",
]
