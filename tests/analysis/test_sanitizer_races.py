"""Seeded races against real components: the sanitizer must catch them.

Each scenario takes a shipped, correctly-locked component and *de-locks*
it — its tracked lock is swapped for a plain ``threading.Lock`` the
sanitizer cannot see.  The plain lock keeps the code actually safe (no
corrupted state, deterministic tests) while faithfully reproducing what
the sanitizer would observe had the lock been deleted: shared-state
accesses with an empty candidate lockset and no happens-before edge.

Every de-locked scenario must produce a RACE001 with *both* access
stacks attached; the clean twin (same operations, real lock kept) must
stay silent — that pair is what proves the detector fires on the defect
and not on the workload.
"""

import threading

from repro.analysis.sanitizer import sanitize

_QUIET = dict(check_order=False)


def _concurrent_pair(first, second, timeout=10.0):
    """``first`` then ``second`` on two overlapping-lifetime threads.

    Both threads start before either is joined, so the sanitizer has no
    fork/join happens-before edge between them; the Event sequences the
    *actual* interleaving so the test is deterministic.
    """
    gate = threading.Event()
    failures = []

    def run_first():
        try:
            first()
        except BaseException as exc:  # pragma: no cover - debug aid
            failures.append(exc)
        finally:
            gate.set()

    def run_second():
        assert gate.wait(timeout)
        second()

    t1 = threading.Thread(target=run_first)
    t2 = threading.Thread(target=run_second)
    t1.start()
    t2.start()
    t1.join()
    t2.join()
    assert not failures


def _de_lock(obj, attr="_lock"):
    """Swap ``obj``'s tracked lock for one the sanitizer cannot see."""
    setattr(obj, attr, threading.Lock())


def _assert_race(san, cls_name, attrs, relpath):
    races = [r for r in san.races if r.cls_name == cls_name]
    assert races, (f"expected a race on {cls_name}, got "
                   f"{[(r.cls_name, r.attr) for r in san.races]}")
    assert {r.attr for r in races} <= set(attrs)
    for race in races:
        assert race.relpath == relpath
        assert race.first_stack, "first access stack missing"
        assert race.second_stack, "second access stack missing"
        first_files = {frame[0] for frame in race.first_stack}
        second_files = {frame[0] for frame in race.second_stack}
        assert any(__file__ in f or relpath.split("/")[-1] in f
                   for f in first_files)
        assert any(__file__ in f or relpath.split("/")[-1] in f
                   for f in second_files)
    findings = [f for f in san.finalize() if f.rule_id == "RACE001"]
    assert findings and all(f.severity == "error" for f in findings)


# ------------------------------------------------------------ virtual clock


def _clock_ops():
    from repro.net.clock import VirtualClock
    clock = VirtualClock()
    return clock, (lambda: clock.advance(1.0, account="link"),
                   lambda: clock.advance(2.0, account="enclave"))


def test_de_locked_clock_advance_races():
    with sanitize(**_QUIET) as san:
        clock, (op1, op2) = _clock_ops()
        _de_lock(clock)
        _concurrent_pair(op1, op2)
    _assert_race(san, "VirtualClock", {"_now", "_charges"}, "net/clock.py")


def test_locked_clock_advance_is_silent():
    with sanitize(**_QUIET) as san:
        clock, (op1, op2) = _clock_ops()
        _concurrent_pair(op1, op2)
        assert clock.now() == 3.0
    assert san.races == []


# ------------------------------------------------- CA serial reservation


def _ca_ops():
    from repro.crypto.rng import HmacDrbg
    from repro.pki.ca import CertificateAuthority
    from repro.pki.name import DistinguishedName

    ca = CertificateAuthority(DistinguishedName("race-ca", "tests"),
                              rng=HmacDrbg(b"sanitizer-race-ca"))
    return ca, (lambda: ca.reserve_serial(), lambda: ca.reserve_serial())


def test_de_locked_serial_reservation_races():
    with sanitize(**_QUIET) as san:
        ca, (op1, op2) = _ca_ops()
        _de_lock(ca)
        _concurrent_pair(op1, op2)
    _assert_race(san, "CertificateAuthority", {"_next_serial"}, "pki/ca.py")


def test_locked_serial_reservation_is_silent():
    with sanitize(**_QUIET) as san:
        ca, (op1, op2) = _ca_ops()
        _concurrent_pair(op1, op2)
    assert san.races == []


# ----------------------------------------------------------- KMS shard


def _shard_ops():
    from repro.crypto.rng import HmacDrbg
    from repro.kms.shard import SecretShard
    from repro.sgx.enclave import EnclaveIdentity

    shard = SecretShard(
        label="shard-race",
        fuse_key=b"f" * 16,
        identity=EnclaveIdentity(mrenclave=b"m" * 32, mrsigner=b"s" * 32,
                                 isv_prod_id=1, isv_svn=1),
        rng=HmacDrbg(b"sanitizer-race-shard"),
    )
    return shard, (
        lambda: shard.store("alpha", b"secret-a", now=0.0, cost=0.25),
        lambda: shard.store("beta", b"secret-b", now=0.0, cost=0.25),
    )


def test_de_locked_shard_store_races():
    with sanitize(**_QUIET) as san:
        shard, (op1, op2) = _shard_ops()
        _de_lock(shard)
        _concurrent_pair(op1, op2)
    _assert_race(san, "SecretShard", {"_blobs", "_busy_until"},
                 "kms/shard.py")


def test_locked_shard_store_is_silent():
    with sanitize(**_QUIET) as san:
        shard, (op1, op2) = _shard_ops()
        _concurrent_pair(op1, op2)
        assert shard.busy_until() == 0.5
    assert san.races == []


# ------------------------------------------------------ fabric keystore


def _keystore_ops():
    from repro.sdn.replication import K_REVOKE, FabricKeystore, LogEntry

    keystore = FabricKeystore()
    return keystore, (
        lambda: keystore.apply(LogEntry(1, K_REVOKE, "vnf-a")),
        lambda: keystore.apply(LogEntry(2, K_REVOKE, "vnf-b")),
    )


def test_de_locked_fabric_keystore_apply_races():
    with sanitize(**_QUIET) as san:
        keystore, (op1, op2) = _keystore_ops()
        _de_lock(keystore)
        _concurrent_pair(op1, op2)
    _assert_race(san, "FabricKeystore", {"_applied_index", "_revoked"},
                 "sdn/replication.py")


def test_locked_fabric_keystore_apply_is_silent():
    with sanitize(**_QUIET) as san:
        keystore, (op1, op2) = _keystore_ops()
        _concurrent_pair(op1, op2)
        assert keystore.revoked_subjects() == {"vnf-a", "vnf-b"}
    assert san.races == []
