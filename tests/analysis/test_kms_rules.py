"""The analyzer covers the KMS: shard/namespace/keystore locks are
leaf domains, tenant secrets are tainted names, and only the shard
module sits inside the enclave boundary."""

import pytest

from repro.analysis import (
    LockOrderChecker,
    SecretFlowChecker,
    module_in_enclave,
)
from repro.analysis.lock_order import (
    ATTR_HINTS,
    LEAF_DOMAINS,
    NON_REENTRANT_DOMAINS,
    lock_domain,
)
from repro.analysis.secret_flow import SECRET_NAMES

from tests.analysis.conftest import analyze_fixture, rule_ids

KMS_DOMAINS = ("kms_shard", "kms_ns", "keystore_entries")


class TestTables:
    """The KMS rows exist and do not weaken the existing tables."""

    def test_kms_domains_are_non_reentrant_leaves(self):
        for domain in KMS_DOMAINS:
            assert domain in LEAF_DOMAINS, domain
            assert domain in NON_REENTRANT_DOMAINS, domain

    def test_kms_lock_sites_point_at_the_real_modules(self):
        assert lock_domain("kms/shard.py", None, "_lock") == "kms_shard"
        assert lock_domain("kms/tenancy.py", None, "_lock") == "kms_ns"
        assert lock_domain("kms/service.py", None, "_trails_lock") == "kms_ns"
        assert lock_domain("pki/keystore.py", None, "_lock") \
            == "keystore_entries"

    def test_kms_attr_hints_resolve_cross_object_calls(self):
        assert ATTR_HINTS["_shards"] == "kms_shard"
        assert ATTR_HINTS["_namespaces"] == "kms_ns"

    def test_tenant_secret_names_are_tainted(self):
        for name in ("tenant_secret", "_tenant_secret",
                     "token_key", "_token_key"):
            assert name in SECRET_NAMES, name

    def test_core_secret_names_not_weakened(self):
        # Spot-check that adding KMS names dropped nothing pre-existing.
        for name in ("private_key", "master_secret", "sealing_key"):
            assert name in SECRET_NAMES, name


class TestEnclaveBoundary:
    def test_only_the_shard_module_is_enclave(self):
        assert module_in_enclave("kms/shard.py")
        for module in ("kms/tenancy.py", "kms/store.py",
                       "kms/service.py", "kms/api.py", "kms/hashring.py"):
            assert not module_in_enclave(module), module


@pytest.mark.parametrize("virtual_path,domain", [
    ("kms/shard.py", "kms_shard"),
    ("kms/tenancy.py", "kms_ns"),
    ("pki/keystore.py", "keystore_entries"),
])
class TestSeededLockViolations:
    def test_leaf_holds_chain_and_double_acquire_fire(self, virtual_path,
                                                      domain):
        findings = analyze_fixture("lock_order_kms.py", virtual_path,
                                   checkers=[LockOrderChecker()])
        assert rule_ids(findings) == ["LOCK002", "LOCK005"]
        by_rule = {f.rule_id: f for f in findings}
        assert by_rule["LOCK002"].symbol == "Sharded.leak_into_chain"
        assert domain in by_rule["LOCK002"].message
        assert by_rule["LOCK005"].symbol == "Sharded.double_acquire"
        assert domain in by_rule["LOCK005"].message
        # The lock-then-mutate method is the documented usage: silent.
        assert not [f for f in findings if f.symbol == "Sharded.local_only"]


class TestSeededSecretLeaks:
    def test_leaks_fire_outside_the_enclave(self):
        findings = analyze_fixture("secret_flow_kms.py", "kms/tenancy.py",
                                   checkers=[SecretFlowChecker()])
        assert rule_ids(findings) == ["SEC001", "SEC002", "SEC006"]
        symbols = {f.rule_id: f.symbol for f in findings}
        assert symbols == {
            "SEC001": "leak_tenant_secret",
            "SEC002": "leak_token_key_log",
            "SEC006": "leak_tenant_secret_transport",
        }

    def test_shard_module_is_exempt(self):
        findings = analyze_fixture("secret_flow_kms.py", "kms/shard.py",
                                   checkers=[SecretFlowChecker()])
        assert findings == []

    def test_live_kms_modules_analyze_clean(self):
        # The shipped KMS passes its own rules (lint --strict enforces
        # this too; the test pins it to the exact checker set).
        from pathlib import Path

        from repro.analysis import ModuleContext, run_checkers

        src = Path(__file__).resolve().parents[2] / "src" / "repro" / "kms"
        contexts = [
            ModuleContext(relpath=f"kms/{path.name}",
                          source=path.read_text())
            for path in sorted(src.glob("*.py"))
        ]
        findings = run_checkers(contexts, checkers=[LockOrderChecker(),
                                                    SecretFlowChecker()])
        assert findings == []
