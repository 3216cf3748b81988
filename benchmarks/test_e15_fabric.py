"""E15 — trusted fabric: failover convergence and revocation fan-out.

The paper runs one Floodlight controller; TruSDN-scale deployments
(PAPERS.md) replicate it.  This experiment grows the deployment's
controller into a :class:`~repro.sdn.fabric.TrustedFabric` — N replicas
sharing a replicated CA-cert keystore — and measures the two costs that
replication is supposed to bound:

* **Failover convergence** at a fixed switch population: crash the
  leader, then :meth:`~repro.sdn.fabric.TrustedFabric.converge` probes
  the replicas, re-elects, and re-homes the orphaned switches across
  the survivors.  Re-homing work per survivor is ``S/R / (R-1)``
  switches, so convergence must *fall* as replicas are added — the
  sub-linear scaling gate.

* **Revocation fan-out** at 1k endpoints: one ``revoke_vnf`` on any
  replica must reach every switch fabric-wide.  Per-switch pushes ride
  each replica's private pipeline timeline (the E13 shard model), so
  the drain cost is ``S/R`` pushes, while log replication adds the
  O(R) leader→follower shipping — both sides recorded per replica
  count in ``BENCH_E15.json`` (rows prefixed ``fanout-``).

* **Byte-identity**: building the fabric and enrolling through it must
  leave the deployment's issued credentials byte-identical to the
  single-controller path — the fabric consumes no randomness and no CA
  serials.
"""

import pytest

from repro.bench.harness import BenchReport, Table, smoke_mode
from repro.core import Deployment
from repro.net.faults import FaultPlan
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.sdn.fabric import TrustedFabric

#: Replica axis (at least two so there is always a survivor).
REPLICA_AXIS = [2, 4] if smoke_mode() else [2, 4, 8]
#: Switch population for the convergence gate (fixed across the axis).
CONVERGE_SWITCHES = 64 if smoke_mode() else 256
#: Endpoint population for the fan-out gate — the ISSUE's 1k endpoints.
FANOUT_ENDPOINTS = 128 if smoke_mode() else 1024
#: Fan-out must complete within this much simulated time at every
#: replica count (a loose absolute bound; the shape gates do the work).
FANOUT_BOUND_SECONDS = 0.25
CONVERGE_BOUND_SECONDS = 1.0


def _fabric(replicas: int, endpoints: int) -> TrustedFabric:
    network = Network(VirtualClock())
    network.install_faults(FaultPlan())
    fabric = TrustedFabric(network, replica_count=replicas)
    fabric.add_endpoints(endpoints)
    fabric.submit_credential("vnf-victim", b"victim-cert", host="h-victim")
    return fabric


@pytest.mark.experiment("E15")
def test_e15_fabric_convergence_and_fanout():
    report = BenchReport("E15")

    # ------------------------------------- gate 1: failover convergence
    converge_table = Table(
        f"E15: leader crash at {CONVERGE_SWITCHES} switches",
        ["replicas", "rehomed", "probes", "sim_ms", "new_leader"],
    )
    converge_seconds = {}
    for replicas in REPLICA_AXIS:
        fabric = _fabric(replicas, CONVERGE_SWITCHES)
        fabric.crash_replica(fabric.leader_rank)
        outcome = fabric.converge()
        converge_seconds[replicas] = outcome.seconds
        # Every orphan re-homed onto a live rank, none left behind.
        assert outcome.switches_rehomed > 0
        for dpid in (f"ep{i + 1:05d}" for i in range(CONVERGE_SWITCHES)):
            assert fabric.home_of(dpid) in outcome.live_ranks
        # Survivors hold byte-identical keystores.
        assert len(set(fabric.keystore_digests().values())) == 1
        assert outcome.seconds < CONVERGE_BOUND_SECONDS
        converge_table.add_row(replicas, outcome.switches_rehomed,
                               outcome.probes,
                               f"{outcome.seconds * 1000:.3f}",
                               outcome.new_leader)
        report.add(
            f"converge-r{replicas}", replicas=replicas,
            switches=CONVERGE_SWITCHES,
            switches_rehomed=outcome.switches_rehomed,
            probes=outcome.probes,
            convergence_seconds=outcome.seconds,
        )
    converge_table.show()
    report.add_table(converge_table)

    # Sub-linear in replicas: more survivors share the re-homing work,
    # so convergence strictly improves along the axis.
    for smaller, larger in zip(REPLICA_AXIS, REPLICA_AXIS[1:]):
        assert converge_seconds[larger] < converge_seconds[smaller], (
            f"convergence did not improve from {smaller} to {larger} "
            f"replicas: {converge_seconds[smaller]:.6f}s -> "
            f"{converge_seconds[larger]:.6f}s"
        )

    # -------------------------------- gate 2: fan-out at 1k endpoints
    fanout_table = Table(
        f"E15: revoke_vnf fan-out to {FANOUT_ENDPOINTS} endpoints",
        ["replicas", "reached", "replication_ms", "drain_ms", "total_ms"],
    )
    for replicas in REPLICA_AXIS:
        fabric = _fabric(replicas, FANOUT_ENDPOINTS)
        outcome = fabric.revoke_vnf("vnf-victim")
        assert outcome.subjects == ["vnf-victim"]
        # Every endpoint reached: no switch may keep honouring the
        # revoked credential.
        assert outcome.switches_reached == FANOUT_ENDPOINTS
        assert outcome.switches_stale == 0
        assert outcome.total_seconds < FANOUT_BOUND_SECONDS
        for rank in range(replicas):
            assert fabric.replica(rank).keystore.is_revoked("vnf-victim")
        fanout_table.add_row(
            replicas, outcome.switches_reached,
            f"{outcome.replication_seconds * 1000:.3f}",
            f"{outcome.drain_seconds * 1000:.3f}",
            f"{outcome.total_seconds * 1000:.3f}",
        )
        report.add(
            f"fanout-r{replicas}", replicas=replicas,
            endpoints=FANOUT_ENDPOINTS,
            switches_reached=outcome.switches_reached,
            replication_seconds=outcome.replication_seconds,
            drain_seconds=outcome.drain_seconds,
            fanout_seconds=outcome.total_seconds,
        )
    fanout_table.show()
    report.add_table(fanout_table)
    report.write()


@pytest.mark.experiment("E15")
def test_e15_fabric_credentials_byte_identical():
    """Building a fabric must not perturb credential issuance: same
    seed, same VNF, byte-identical certificate with and without it."""
    plain = Deployment(seed=b"bench-e15-ident", vnf_count=2)
    plain.enroll("vnf-1")
    reference = plain.vm.issued_certificate("vnf-1").to_bytes()

    fabricated = Deployment(seed=b"bench-e15-ident", vnf_count=2)
    fabric = fabricated.build_fabric(replica_count=3)
    fabricated.enroll_fabric("vnf-1")
    via_fabric = fabricated.vm.issued_certificate("vnf-1").to_bytes()

    assert via_fabric == reference
    # And the replicated copy every controller holds is that same cert.
    assert fabric.credential("vnf-1") == reference
    assert len(set(fabric.keystore_digests().values())) == 1
