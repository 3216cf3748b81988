"""HYG rules: bare excepts, mutable defaults, determinism bypasses."""

from repro.analysis import HygieneChecker

from tests.analysis.conftest import analyze_fixture


def _bad(virtual_path="core/fixture.py"):
    return analyze_fixture("hygiene_bad.py", virtual_path,
                           checkers=[HygieneChecker()])


class TestSeededViolations:
    def test_every_hyg_rule_fires(self):
        assert {f.rule_id for f in _bad()} == {"HYG001", "HYG002", "HYG003",
                                               "HYG005"}

    def test_bare_except(self):
        hyg001 = [f for f in _bad() if f.rule_id == "HYG001"]
        assert [f.symbol for f in hyg001] == ["swallow_everything"]

    def test_mutable_defaults(self):
        hyg002 = [f for f in _bad() if f.rule_id == "HYG002"]
        assert {f.symbol for f in hyg002} == {"shared_accumulator",
                                              "shared_index",
                                              "factory_default"}

    def test_determinism_bypasses(self):
        messages = [f.message for f in _bad() if f.rule_id == "HYG003"]
        joined = "\n".join(messages)
        for source in ("time.time", "time.sleep", "random.random",
                       "os.urandom", "datetime.now"):
            assert source in joined, source

    def test_process_pool_outside_kernels(self):
        hyg005 = [f for f in _bad() if f.rule_id == "HYG005"]
        assert {f.symbol for f in hyg005} == {"rogue_process_pool",
                                              "rogue_executor_attribute"}
        joined = "\n".join(f.message for f in hyg005)
        assert "import multiprocessing" in joined
        assert "ProcessPoolExecutor" in joined

    def test_no_module_is_exempt_from_hyg005(self):
        for path in ("core/kernels.py", "core/fleet.py", "kms/shard.py"):
            hyg005 = [f for f in _bad(virtual_path=path)
                      if f.rule_id == "HYG005"]
            assert len(hyg005) == 3, path

    def test_rng_module_may_not_seed_from_os(self):
        def hyg003(path):
            return [f.message for f in _bad(virtual_path=path)
                    if f.rule_id == "HYG003"]

        under_rng = hyg003("crypto/rng.py")
        assert [m for m in under_rng if "os.urandom" in m]
        assert under_rng == hyg003("core/fixture.py")


class TestCleanFixture:
    def test_clean_fixture_is_silent(self):
        findings = analyze_fixture("hygiene_clean.py", "core/fixture.py",
                                   checkers=[HygieneChecker()])
        assert findings == []
