"""LOCK rules: the checker provably encodes docs/CONCURRENCY.md's
VM → CA → cache (and registry → family → child) order, catches every
seeded inversion, and stays silent on documented usage."""

from pathlib import Path

from repro.analysis import LockOrderChecker, ModuleContext, run_checkers
from repro.analysis.lock_order import (
    ATTR_HINTS,
    LEAF_DOMAINS,
    ORDER_CHAINS,
    OUTER_DOMAINS,
    lock_domain,
    lock_sites,
)

from tests.analysis.conftest import analyze_fixture, fixture_context

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestEncodedOrder:
    """The acceptance criterion: the checker's order IS the documented
    order, not a lookalike."""

    def test_core_chain_is_vm_ca_cache(self):
        assert ORDER_CHAINS["core"] == ("vm", "ca", "cache")

    def test_metrics_chain_is_registry_family_child(self):
        assert ORDER_CHAINS["metrics"] == ("registry", "family", "child")

    def test_chains_match_concurrency_doc(self):
        doc = (REPO_ROOT / "docs" / "CONCURRENCY.md").read_text()
        assert "VM lock → CA lock → cache locks" in doc
        assert "registry lock → family lock → child lock" in doc

    def test_every_documented_lock_has_a_site_mapping(self):
        domains = set(lock_sites().values())
        for chain in ORDER_CHAINS.values():
            for domain in chain:
                assert domain in domains, domain
        assert LEAF_DOMAINS <= domains | {"host"}
        assert OUTER_DOMAINS <= domains

    def test_vm_ca_cache_sites_point_at_the_real_modules(self):
        assert lock_domain("core/verification_manager.py", None, "_lock") == "vm"
        assert lock_domain("pki/ca.py", None, "_lock") == "ca"
        assert lock_domain("core/verification_cache.py", None, "_lock") == "cache"

    def test_ratls_verifier_lock_is_a_non_reentrant_leaf(self):
        assert lock_domain("tls/ratls.py", None, "_lock") == "ratls"
        assert "ratls" in LEAF_DOMAINS
        from repro.analysis.lock_order import NON_REENTRANT_DOMAINS

        assert "ratls" in NON_REENTRANT_DOMAINS


class TestSeededViolations:
    def test_backward_edge_fires_lock001(self):
        findings = analyze_fixture("lock_order_backward.py", "pki/ca.py",
                                   checkers=[LockOrderChecker()])
        lock001 = [f for f in findings if f.rule_id == "LOCK001"]
        assert {f.symbol for f in lock001} == {
            "CertificateAuthority.issue_and_notify",
            "CertificateAuthority.acquire_style",
        }
        assert all("vm" in f.message and "ca" in f.message.lower()
                   for f in lock001)
        # the forward ca → cache edge in the same fixture is legal
        assert not [f for f in findings
                    if f.symbol == "CertificateAuthority.cached_issue"]

    def test_leaf_holding_chain_fires_lock002(self):
        findings = analyze_fixture("lock_order_leaf.py", "core/events.py",
                                   checkers=[LockOrderChecker()])
        assert [f.rule_id for f in findings] == ["LOCK002"]
        assert findings[0].symbol == "AuditLog.record_and_notify"

    def test_cross_chain_fires_lock003(self):
        findings = analyze_fixture("lock_order_cross_chain.py",
                                   "obs/registry.py",
                                   checkers=[LockOrderChecker()])
        assert [f.rule_id for f in findings] == ["LOCK003"]

    def test_cycle_fires_lock004(self):
        ctxs = [
            fixture_context("lock_order_cycle_a.py", "net/clock.py"),
            fixture_context("lock_order_cycle_b.py", "core/events.py"),
        ]
        findings = run_checkers(ctxs, checkers=[LockOrderChecker()])
        lock004 = [f for f in findings if f.rule_id == "LOCK004"]
        assert len(lock004) == 1
        assert "clock" in lock004[0].message
        assert "audit" in lock004[0].message
        # each half alone is legal: no cycle, no findings
        for ctx in ctxs:
            assert run_checkers([ctx], checkers=[LockOrderChecker()]) == []

    def test_double_host_lock_fires_lock005(self):
        findings = analyze_fixture("lock_order_self.py", "core/fleet.py",
                                   checkers=[LockOrderChecker()])
        assert [f.rule_id for f in findings] == ["LOCK005"]
        assert findings[0].symbol == "FleetScheduler.attest_pair"

    def test_undocumented_domains_fire_lock006(self):
        findings = analyze_fixture("lock_order_domains.py", "sdn/fabric.py",
                                   checkers=[LockOrderChecker()])
        assert [(f.rule_id, f.symbol) for f in findings] == [
            ("LOCK006", "Misspelt.__init__"),
            ("LOCK006", "Computed.__init__"),
        ]
        assert "unknown domain 'fabirc'" in findings[0].message
        assert "non-literal domain" in findings[1].message

    def test_misspelt_live_domain_fires_lock006(self):
        path = REPO_ROOT / "src" / "repro" / "sdn" / "fabric.py"
        source = path.read_text()
        assert 'make_lock("fabric")' in source
        ctx = ModuleContext(relpath="sdn/fabric.py", source=source.replace(
            'make_lock("fabric")', 'make_lock("fabirc")', 1))
        findings = run_checkers([ctx], checkers=[LockOrderChecker()])
        assert [f.rule_id for f in findings] == ["LOCK006"]


class TestDocumentedUsageIsClean:
    def test_clean_fixture_is_silent(self):
        findings = analyze_fixture("lock_order_clean.py",
                                   "core/verification_manager.py",
                                   checkers=[LockOrderChecker()])
        assert findings == []

    def test_single_flight_host_lock_is_legal(self):
        # The fleet's single-flight gate holds a per-host lock across the
        # whole attestation (VM lock included) — the documented
        # mechanism must not be flagged.
        source = (
            "class SingleFlightHosts:\n"
            "    def attest(self, host):\n"
            "        lock = self._host_locks[host]\n"
            "        with lock:\n"
            "            return self.vm.attest_host(host)\n"
        )
        # The site resolves, so the host -> vm edge is really checked.
        assert lock_domain("core/fleet.py", "SingleFlightHosts",
                           "_host_locks") == "host"
        ctx = ModuleContext(relpath="core/fleet.py", source=source)
        assert run_checkers([ctx], checkers=[LockOrderChecker()]) == []


class TestHintCoverage:
    def test_hints_resolve_the_chain_domains(self):
        hinted = set(ATTR_HINTS.values())
        for domain in ("vm", "ca", "cache"):
            assert domain in hinted
