"""SEC rules: every seeded escape fires; the clean fixture is silent;
the enclave boundary exempts the enclave modules."""

from collections import Counter

from repro.analysis import SecretFlowChecker, module_in_enclave

from tests.analysis.conftest import analyze_fixture


def _bad(virtual_path="core/leaky.py"):
    return analyze_fixture("secret_flow_bad.py", virtual_path,
                           checkers=[SecretFlowChecker()])


class TestSeededViolations:
    def test_every_sec_rule_fires(self):
        fired = {f.rule_id for f in _bad()}
        assert fired == {"SEC001", "SEC002", "SEC003",
                         "SEC004", "SEC005", "SEC006"}

    def test_return_escapes(self):
        by_symbol = {f.symbol for f in _bad() if f.rule_id == "SEC001"}
        assert {"leak_by_return", "leak_by_return_tuple",
                "leak_by_alias", "leak_derived_secret"} <= by_symbol

    def test_log_and_print_escapes(self):
        by_symbol = {f.symbol for f in _bad() if f.rule_id == "SEC002"}
        assert by_symbol == {"leak_by_print", "leak_by_log"}

    def test_format_escapes(self):
        by_symbol = {f.symbol for f in _bad() if f.rule_id == "SEC003"}
        assert {"leak_by_fstring", "leak_by_percent"} <= by_symbol

    def test_exception_escapes(self):
        by_symbol = {f.symbol for f in _bad() if f.rule_id == "SEC004"}
        assert by_symbol == {"leak_by_exception", "leak_by_exception_arg"}

    def test_serialization_escapes(self):
        by_symbol = {f.symbol for f in _bad() if f.rule_id == "SEC005"}
        assert by_symbol == {"leak_by_serialize", "leak_by_hex"}

    def test_transport_escape(self):
        by_symbol = {f.symbol for f in _bad() if f.rule_id == "SEC006"}
        assert by_symbol == {"leak_by_transport"}

    def test_findings_carry_locations_and_severity(self):
        for finding in _bad():
            assert finding.severity == "error"
            assert finding.line > 0
            assert finding.location.startswith("src/repro/core/leaky.py:")


class TestCleanFixture:
    def test_clean_fixture_is_silent(self):
        findings = analyze_fixture("secret_flow_clean.py", "core/tidy.py",
                                   checkers=[SecretFlowChecker()])
        assert findings == []


class TestEnclaveBoundary:
    def test_enclave_modules_are_exempt(self):
        # The same leaky code inside the enclave boundary is legal: the
        # whole point of the paper is that secrets may live there.
        for virtual in ("sgx/epid.py", "tls/handshake.py",
                        "core/credential_enclave.py",
                        "core/attestation_enclave.py"):
            findings = analyze_fixture("secret_flow_bad.py", virtual,
                                       checkers=[SecretFlowChecker()])
            assert findings == [], virtual

    def test_boundary_predicate(self):
        assert module_in_enclave("sgx/sealing.py")
        assert module_in_enclave("tls/session.py")
        assert module_in_enclave("core/credential_enclave.py")
        assert not module_in_enclave("core/verification_manager.py")
        assert not module_in_enclave("crypto/ecdsa.py")

    def test_duplicate_findings_get_distinct_fingerprints(self):
        findings = _bad()
        counts = Counter(f.fingerprint for f in findings)
        assert all(count == 1 for count in counts.values())
