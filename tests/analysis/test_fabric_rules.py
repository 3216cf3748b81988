"""The analyzer covers the replicated SDN fabric: the replica lock, the
replication log, and the fabric keystore are non-reentrant leaf domains,
and the live ``sdn/`` tree passes its own rules."""

import pytest

from repro.analysis import LockOrderChecker
from repro.analysis.lock_order import (
    LEAF_DOMAINS,
    NON_REENTRANT_DOMAINS,
    lock_domain,
)

from tests.analysis.conftest import analyze_fixture

FABRIC_DOMAINS = ("fabric", "fabric_log", "fabric_keystore")


class TestTables:
    """The fabric rows exist and do not weaken the existing tables."""

    def test_fabric_domains_are_non_reentrant_leaves(self):
        for domain in FABRIC_DOMAINS:
            assert domain in LEAF_DOMAINS, domain
            assert domain in NON_REENTRANT_DOMAINS, domain

    def test_fabric_lock_sites_point_at_the_real_modules(self):
        assert lock_domain("sdn/fabric.py", None, "_lock") == "fabric"
        assert lock_domain("sdn/replication.py", "ReplicationLog",
                           "_lock") == "fabric_log"
        assert lock_domain("sdn/replication.py", "FabricKeystore",
                           "_lock") == "fabric_keystore"

    def test_kms_rows_not_weakened(self):
        # Spot-check that the fabric rows displaced nothing pre-existing.
        assert lock_domain("kms/shard.py", None, "_lock") == "kms_shard"
        assert "kms_shard" in LEAF_DOMAINS


@pytest.mark.parametrize("virtual_path,cls,domain", [
    ("sdn/fabric.py", "Replica", "fabric"),
    ("sdn/replication.py", "ReplicationLog", "fabric_log"),
    ("sdn/replication.py", "FabricKeystore", "fabric_keystore"),
])
class TestSeededLockViolations:
    def test_leaf_holds_chain_and_double_acquire_fire(self, virtual_path,
                                                      cls, domain):
        findings = [
            f for f in analyze_fixture("lock_order_fabric.py", virtual_path,
                                       checkers=[LockOrderChecker()])
            if f.symbol.startswith(f"{cls}.")
        ]
        assert sorted({f.rule_id for f in findings}) \
            == ["LOCK002", "LOCK005"]
        by_rule = {f.rule_id: f for f in findings}
        assert by_rule["LOCK002"].symbol == f"{cls}.leak_into_chain"
        assert domain in by_rule["LOCK002"].message
        assert by_rule["LOCK005"].symbol == f"{cls}.double_acquire"
        assert domain in by_rule["LOCK005"].message
        # The lock-then-mutate method is the documented usage: silent.
        assert not [f for f in findings
                    if f.symbol == f"{cls}.local_only"]


class TestLiveTree:
    def test_live_sdn_modules_analyze_clean(self):
        # The shipped fabric passes its own rules (lint --strict enforces
        # this too; the test pins it to the exact checker).
        from pathlib import Path

        from repro.analysis import ModuleContext, run_checkers

        src = Path(__file__).resolve().parents[2] / "src" / "repro" / "sdn"
        contexts = [
            ModuleContext(relpath=f"sdn/{path.name}",
                          source=path.read_text())
            for path in sorted(src.glob("*.py"))
        ]
        findings = run_checkers(contexts, checkers=[LockOrderChecker()])
        assert findings == []
