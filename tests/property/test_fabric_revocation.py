"""Property: fabric revocation survives any failover interleaving.

Drives a :class:`~repro.sdn.fabric.TrustedFabric` through arbitrary
interleavings of session opens, subject revocations, host distrusts,
replica crashes and convergence passes.  After every step, every
subject the model considers revoked must be (a) absent from every
*live* replica's keystore-trusted set, (b) unable to open a session on
any switch, and (c) unable to resume an existing session on any switch
— including switches whose home controller was dead when the
revocation fanned out and that were re-homed later.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ControllerUnavailable
from repro.net.faults import FaultPlan
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.sdn.fabric import TrustedFabric

SUBJECTS = ("vnf-a", "vnf-b", "vnf-c")
HOSTS = {"vnf-a": "host-1", "vnf-b": "host-1", "vnf-c": "host-2"}
REPLICAS = 3
ENDPOINTS = 6

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from(SUBJECTS),
                  st.integers(min_value=0, max_value=ENDPOINTS - 1)),
        st.tuples(st.just("revoke"), st.sampled_from(SUBJECTS),
                  st.just(0)),
        st.tuples(st.just("distrust"),
                  st.sampled_from(sorted(set(HOSTS.values()))), st.just(0)),
        st.tuples(st.just("crash"),
                  st.integers(min_value=0, max_value=REPLICAS - 1),
                  st.just(0)),
        st.tuples(st.just("converge"), st.just(""), st.just(0)),
    ),
    min_size=1, max_size=14,
)


def _build_fabric():
    network = Network(VirtualClock())
    network.install_faults(FaultPlan())
    fabric = TrustedFabric(network, replica_count=REPLICAS)
    dpids = fabric.add_endpoints(ENDPOINTS)
    for subject in SUBJECTS:
        fabric.submit_credential(subject, f"cert-{subject}".encode(),
                                 host=HOSTS[subject])
    return fabric, dpids


def _check_invariant(fabric, dpids, revoked_model, crashed_model):
    for rank, replica in enumerate(fabric.replicas()):
        if rank in crashed_model:
            continue  # a dead replica's local state may be stale
        # Every live replica that has applied the revocations agrees.
        applied = replica.keystore.revoked_subjects()
        for subject in revoked_model & applied:
            assert replica.keystore.is_revoked(subject)
    for subject in revoked_model:
        for dpid in dpids:
            assert not fabric.open_session(dpid, subject), (
                f"revoked {subject} opened a session on {dpid}"
            )
            assert not fabric.session_resumable(dpid, subject), (
                f"revoked {subject} resumed on {dpid}"
            )


@given(OPS)
@settings(max_examples=60, deadline=None)
def test_revoked_subject_never_survives_failover(ops):
    fabric, dpids = _build_fabric()
    revoked_model = set()
    crashed_model = set()
    for op, arg, extra in ops:
        if op == "open":
            fabric.open_session(dpids[extra], arg)
        elif op == "revoke":
            try:
                fabric.revoke_vnf(arg)
            except ControllerUnavailable:
                continue  # every replica down: nothing to check yet
            revoked_model.add(arg)
        elif op == "distrust":
            try:
                fabric.distrust_host(arg)
            except ControllerUnavailable:
                continue
            revoked_model.update(s for s, h in HOSTS.items() if h == arg)
        elif op == "crash":
            if arg not in crashed_model and len(crashed_model) < REPLICAS - 1:
                fabric.crash_replica(arg)
                crashed_model.add(arg)
        elif op == "converge":
            fabric.converge()
        _check_invariant(fabric, dpids, revoked_model, crashed_model)
    # Final convergence: survivors must agree byte-for-byte.
    fabric.converge()
    _check_invariant(fabric, dpids, revoked_model, crashed_model)
    assert len(set(fabric.keystore_digests().values())) == 1
