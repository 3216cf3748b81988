"""The runner end-to-end: the live tree is clean under the committed
baseline, the CLI verb behaves, and rule selection works."""

import re
from pathlib import Path

from repro.analysis import all_rules, analyze_tree
from repro.analysis.baseline import DEFAULT_BASELINE_NAME
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BASELINE = REPO_ROOT / DEFAULT_BASELINE_NAME


class TestLiveTree:
    def test_live_tree_clean_under_committed_baseline(self):
        """The acceptance criterion: zero unbaselined findings."""
        report = analyze_tree()
        assert report.findings == [], [f.render() for f in report.findings]

    def test_committed_baseline_has_no_stale_entries(self):
        report = analyze_tree()
        assert report.stale_entries == [], [
            e.location_hint for e in report.stale_entries]

    def test_every_baseline_entry_is_justified(self):
        # parse_baseline enforces this, but assert on the committed file
        # so a hand-edited empty justification fails loudly here too.
        text = BASELINE.read_text()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            _, _, justification = line.partition(" -- ")
            assert len(justification.strip()) >= 15, line


class TestCli:
    def test_lint_strict_exits_zero_on_clean_tree(self):
        import io
        out = io.StringIO()
        assert main(["lint", "--strict"], out=out) == 0
        assert "0 error(s)" in out.getvalue()

    def test_lint_list_rules(self):
        import io
        out = io.StringIO()
        assert main(["lint", "--list-rules"], out=out) == 0
        text = out.getvalue()
        for rule_id in ("SEC001", "LOCK001", "CT001", "HYG001"):
            assert rule_id in text

    def test_lint_unknown_rule_exits_2(self):
        import io
        out = io.StringIO()
        assert main(["lint", "--rule", "NOPE999"], out=out) == 2

    def test_lint_rule_selection_runs_subset(self):
        import io
        out = io.StringIO()
        assert main(["lint", "--rule", "HYG001"], out=out) == 0


class TestRuleCatalogue:
    def test_all_rule_families_contribute(self):
        checkers = {checker for checker, _ in all_rules().values()}
        assert checkers == {"secret-flow", "lock-order",
                            "constant-time", "hygiene", "sanitizer"}

    def test_rule_ids_are_unique_across_checkers(self):
        # all_rules() would silently collapse duplicates; build the union
        # by hand and compare counts.
        from repro.analysis import default_checkers
        ids = [rule for checker in default_checkers()
               for rule in checker.rules]
        assert len(ids) == len(set(ids))

    def test_docs_name_every_rule(self):
        # The catalogue tables in docs/ANALYSIS.md list exactly the rules
        # the analyzer and the sanitizer run: no row for a retired rule,
        # and no rule without a row.
        text = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text()
        documented = set(re.findall(r"^\| `([A-Z]+\d{3})` \|", text,
                                    flags=re.MULTILINE))
        assert documented == set(all_rules())


class TestBrokenInputs:
    def test_malformed_baseline_exits_2(self, tmp_path):
        import io
        bad = tmp_path / "baseline"
        bad.write_text("zzz SEC001 src/x.py:1\n")  # missing justification
        out = io.StringIO()
        assert main(["lint", "--baseline", str(bad)], out=out) == 2
        assert "justification" in out.getvalue()

    def test_unparseable_module_exits_2(self, tmp_path):
        import io
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "broken.py").write_text("def nope(:\n")
        out = io.StringIO()
        assert main(["lint", "--root", str(root)], out=out) == 2
