"""Unit tests for the trusted fabric (repro.sdn.fabric)."""

import pytest

from repro.errors import ControllerUnavailable, FabricError
from repro.net.faults import FaultPlan
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.sdn.fabric import TrustedFabric
from repro.sdn.northbound import FABRIC_STATUS_PATH


@pytest.fixture()
def fabric():
    network = Network(VirtualClock())
    network.install_faults(FaultPlan())
    return TrustedFabric(network, replica_count=3)


def test_replicated_submit_reaches_every_replica(fabric):
    fabric.anchor_ca("root", b"anchor-cert")
    fabric.submit_credential("vnf-1", b"cert-der", host="h1")
    for replica in fabric.replicas():
        assert replica.log.last_index == 2
        assert replica.keystore.credential("vnf-1") == b"cert-der"
        assert replica.keystore.anchor("root") == b"anchor-cert"
    assert len(set(fabric.keystore_digests().values())) == 1


def test_endpoints_are_homed_round_robin(fabric):
    dpids = fabric.add_endpoints(7)
    assert [fabric.home_of(d) for d in dpids] == [0, 1, 2, 0, 1, 2, 0]
    assert fabric.switch_count() == 7
    with pytest.raises(FabricError):
        fabric.home_of("no-such-switch")


def test_revocation_fans_out_to_every_homed_switch(fabric):
    dpids = fabric.add_endpoints(6)
    fabric.submit_credential("vnf-1", b"cert", host="h1")
    for dpid in dpids:
        assert fabric.open_session(dpid, "vnf-1")
    report = fabric.revoke_vnf("vnf-1")
    assert report.subjects == ["vnf-1"]
    assert report.switches_reached == 6
    assert report.switches_stale == 0
    assert report.total_seconds > 0
    for dpid in dpids:
        assert not fabric.session_resumable(dpid, "vnf-1")
        assert not fabric.open_session(dpid, "vnf-1")
    # Idempotent: a second revocation has nothing new to fan out.
    assert fabric.revoke_vnf("vnf-1").subjects == []


def test_distrust_host_evicts_every_homed_credential(fabric):
    dpids = fabric.add_endpoints(3)
    fabric.submit_credential("vnf-1", b"c1", host="bad-host")
    fabric.submit_credential("vnf-2", b"c2", host="bad-host")
    fabric.submit_credential("vnf-3", b"c3", host="good-host")
    for dpid in dpids:
        assert fabric.open_session(dpid, "vnf-2")
    report = fabric.distrust_host("bad-host")
    assert report.subjects == ["vnf-1", "vnf-2"]
    assert fabric.sessions_for("vnf-2") == []
    assert fabric.open_session(dpids[0], "vnf-3")


def test_failover_elects_next_rank_and_rehomes(fabric):
    dpids = fabric.add_endpoints(9)
    fabric.submit_credential("vnf-1", b"cert", host="h1")
    fabric.crash_replica(0)
    report = fabric.converge()
    assert report.crashed_ranks == [0]
    assert report.live_ranks == [1, 2]
    assert report.new_leader == 1
    assert report.switches_rehomed == 3  # rank 0's share of 9
    assert report.seconds > 0
    assert fabric.leader_rank == 1
    for dpid in dpids:
        assert fabric.home_of(dpid) in (1, 2)
    # Survivors hold identical keystores, and writes keep working.
    assert len(set(fabric.keystore_digests().values())) == 1
    fabric.submit_credential("vnf-2", b"cert2", host="h2")
    assert fabric.replica(1).keystore.credential("vnf-2") == b"cert2"
    assert fabric.replica(2).keystore.credential("vnf-2") == b"cert2"


def test_propose_fails_over_without_converge(fabric):
    fabric.submit_credential("vnf-1", b"cert", host="h1")
    fabric.crash_replica(0)
    # The next write discovers the dead leader and fails over inline.
    fabric.submit_credential("vnf-2", b"cert2", host="h2")
    assert fabric.leader_rank == 1
    assert 0 in fabric.crashed_ranks()
    assert fabric.replica(2).keystore.credential("vnf-2") == b"cert2"


def test_rehomed_switch_learns_missed_revocations(fabric):
    dpids = fabric.add_endpoints(3)
    fabric.submit_credential("vnf-1", b"cert", host="h1")
    victim = dpids[0]  # homed on rank 0
    assert fabric.home_of(victim) == 0
    assert fabric.open_session(victim, "vnf-1")
    fabric.crash_replica(0)
    # Revocation while the switch's home is down: the push cannot reach
    # it, but resumption already fails (no live home to validate with).
    report = fabric.revoke_vnf("vnf-1")
    assert report.switches_stale == 1
    assert not fabric.session_resumable(victim, "vnf-1")
    # After convergence the new home syncs the revocation view.
    fabric.converge()
    assert not fabric.session_resumable(victim, "vnf-1")
    assert not fabric.open_session(victim, "vnf-1")


def test_all_replicas_down_raises(fabric):
    for rank in range(3):
        fabric.crash_replica(rank)
    with pytest.raises(ControllerUnavailable):
        fabric.submit_credential("vnf-1", b"cert", host="h1")
    with pytest.raises(ControllerUnavailable):
        fabric.converge()


def test_status_served_by_every_replica_northbound_hook(fabric):
    fabric.add_endpoints(3)
    fabric.submit_credential("vnf-1", b"cert", host="h1")
    for replica in fabric.replicas():
        status = replica.controller.fabric_status()
        assert status["rank"] == replica.rank
        assert status["replicas"] == 3
        assert status["lastIndex"] == 1
        assert status["switchesHomed"] == 1
        assert status["keystore"]["credentials"] == 1


def test_deployment_fabric_serves_status_over_northbound():
    from repro.core.workflow import Deployment

    deployment = Deployment(seed=b"fabric-nb", vnf_count=1)
    deployment.build_fabric(replica_count=2)
    deployment.enroll_fabric("vnf-1")
    client = deployment.enclave_client("vnf-1")
    status = client.request_json("GET", FABRIC_STATUS_PATH)
    assert status["rank"] == 0
    assert status["replicas"] == 2
    assert status["keystore"]["credentials"] == 1
    fabric = deployment.fabric
    expected = deployment.vm.issued_certificate("vnf-1").to_bytes()
    assert fabric.credential("vnf-1") == expected


def test_fabric_replica_count_validation():
    with pytest.raises(FabricError):
        TrustedFabric(Network(VirtualClock()), replica_count=0)
