"""Unit tests for the runtime race/lock-discipline sanitizer.

Covers the machinery itself: zero-cost factories, edge observation and
the dynamic order check (RACE002), the happens-before refinements that
keep the Eraser machine quiet on correct code, and the JSON report round
trip into ``repro lint``.
The seeded races against real components live in
``test_sanitizer_races.py``.
"""

import threading

import pytest

from repro.analysis.sanitizer import (
    SANITIZER_RULES,
    Sanitizer,
    TrackedLock,
    TrackedRLock,
    current_sanitizer,
    load_report,
    make_lock,
    make_rlock,
    register_shared,
    sanitize,
)

_QUIET = dict(check_order=False)


def _sequenced_pair(first, second, timeout=10.0):
    """Run ``first`` then ``second`` on two *concurrent* threads.

    Both threads are started before either is joined, so the sanitizer
    sees no fork/join happens-before edge between them; an Event makes
    the actual interleaving deterministic (first fully precedes second).
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


def _skip_under_outer_sanitizer():
    if current_sanitizer() is not None:
        pytest.skip("an outer sanitizer (REPRO_SANITIZE session) is active")


class TestFactories:
    def test_plain_locks_when_not_sanitizing(self, monkeypatch):
        _skip_under_outer_sanitizer()
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert type(make_lock("clock")) is type(threading.Lock())
        assert type(make_rlock("vm")) is type(threading.RLock())

    def test_tracked_locks_inside_sanitize(self):
        with sanitize(**_QUIET) as san:
            lock = make_lock("clock")
            rlock = make_rlock("vm")
            assert current_sanitizer() is san
        assert isinstance(lock, TrackedLock)
        assert isinstance(rlock, TrackedRLock)
        assert not isinstance(lock, TrackedRLock)

    def test_env_switch_arms_the_factories(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        lock = make_lock("clock")
        assert isinstance(lock, TrackedLock)
        # With no *active* sanitizer the tracked lock degrades to a
        # plain lock: every operation still works, nothing is recorded.
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_tracked_lock_behaves_like_a_lock(self):
        with sanitize(**_QUIET):
            lock = make_lock("clock")
            with lock:
                assert lock.locked()
                assert not lock.acquire(blocking=False)
            assert lock.acquire(blocking=False)
            lock.release()

    def test_tracked_rlock_is_reentrant(self):
        with sanitize(**_QUIET) as san:
            lock = make_rlock("vm")
            with lock:
                with lock:
                    pass
        # Re-entry on the same instance is depth-tracked, not an edge.
        assert san.observed_edges() == []

    def test_rule_catalogue_names_all_three_rules(self):
        # Lock sites are read from the code and each construction is
        # checked statically (LOCK006), so no runtime coverage rule.
        assert set(SANITIZER_RULES) == {"RACE001", "RACE002"}


class TestEdgeObservation:
    def test_nested_acquisition_records_one_deduped_edge(self):
        with sanitize(**_QUIET) as san:
            outer = make_lock("clock")
            inner = make_lock("audit")
            for _ in range(3):
                with outer:
                    with inner:
                        pass
        edges = san.observed_edges()
        assert [(e.outer, e.inner) for e in edges] == [("clock", "audit")]
        assert edges[0].count == 3

    def test_sequential_acquisitions_record_no_edge(self):
        with sanitize(**_QUIET) as san:
            a, b = make_lock("clock"), make_lock("audit")
            with a:
                pass
            with b:
                pass
        assert san.observed_edges() == []


class TestDynamicOrder:
    def test_leaf_holding_chain_lock_is_race002(self):
        with sanitize() as san:
            leaf = make_lock("clock")
            chain = make_rlock("vm")
            with leaf:
                with chain:
                    pass
        findings = san.finalize()
        assert [f.rule_id for f in findings] == ["RACE002"]
        assert "[LOCK002]" in findings[0].message
        assert "'clock'" in findings[0].message

    def test_documented_chain_order_is_silent(self):
        with sanitize() as san:
            vm, ca, cache = (make_rlock("vm"), make_rlock("ca"),
                             make_rlock("cache"))
            with vm:
                with ca:
                    with cache:
                        pass
        assert san.finalize() == []

    def test_chain_order_inversion_is_race002(self):
        with sanitize() as san:
            vm, ca = make_rlock("vm"), make_rlock("ca")
            with ca:
                with vm:
                    pass
        findings = san.finalize()
        assert [f.rule_id for f in findings] == ["RACE002"]
        assert "[LOCK001]" in findings[0].message

    def test_audited_safe_nestings_are_exempt(self):
        # The connection-wrapper locks legitimately hold across a TLS
        # exchange that touches session/verdict caches (SAFE_NESTINGS).
        with sanitize() as san:
            pool = make_rlock("ias_pool")
            cache = make_rlock("cache")
            with pool:
                with cache:
                    pass
        assert san.finalize() == []


class _Box:
    """Unregistered helper; each test registers its own subclass."""


def _fresh_box_cls():
    cls = type("Box", (_Box,), {})
    register_shared(cls, ["value"])
    return cls


class TestEraserMachine:
    def test_single_thread_never_races(self):
        with sanitize(**_QUIET) as san:
            box = _fresh_box_cls()()
            for i in range(10):
                box.value = i
                assert box.value == i
        assert san.races == []

    def test_fork_join_sequenced_threads_do_not_race(self):
        with sanitize(**_QUIET) as san:
            box = _fresh_box_cls()()
            box.value = 0
            for i in range(3):
                t = threading.Thread(target=lambda i=i: setattr(
                    box, "value", i))
                t.start()
                t.join()
        assert san.races == []

    def test_lock_protected_threads_do_not_race(self):
        with sanitize(**_QUIET) as san:
            box = _fresh_box_cls()()
            lock = make_lock("clock")

            def bump():
                with lock:
                    box.value = box.value + 1

            with lock:
                box.value = 0
            _sequenced_pair(bump, bump)
        assert san.races == []

    def test_unsynchronized_concurrent_writes_race(self):
        with sanitize(**_QUIET) as san:
            box = _fresh_box_cls()()
            box.value = 0
            _sequenced_pair(lambda: setattr(box, "value", 1),
                            lambda: setattr(box, "value", 2))
        assert len(san.races) == 1
        race = san.races[0]
        assert race.attr == "value"
        assert race.first_stack and race.second_stack
        assert race.first_locks == () and race.second_locks == ()

    def test_untracked_plain_lock_is_invisible(self):
        # The de-locking recipe the seeded-race tests rely on: a plain
        # threading.Lock keeps the code *actually* safe but provides no
        # tracked candidate, so the sanitizer still reports the race it
        # would have reported had the lock been removed outright.
        with sanitize(**_QUIET) as san:
            box = _fresh_box_cls()()
            plain = threading.Lock()

            def bump(n):
                with plain:
                    box.value = n

            box.value = 0
            _sequenced_pair(lambda: bump(1), lambda: bump(2))
        assert len(san.races) == 1

    def test_race_is_reported_once_per_attribute(self):
        with sanitize(**_QUIET) as san:
            box = _fresh_box_cls()()
            box.value = 0

            def hammer(n):
                for i in range(5):
                    box.value = n + i

            _sequenced_pair(lambda: hammer(10), lambda: hammer(20))
        assert len(san.races) == 1

    def test_race001_finding_carries_symbol_and_severity(self):
        with sanitize(**_QUIET) as san:
            box = _fresh_box_cls()()
            box.value = 0
            _sequenced_pair(lambda: setattr(box, "value", 1),
                            lambda: setattr(box, "value", 2))
        findings = san.finalize()
        assert [f.rule_id for f in findings] == ["RACE001"]
        assert findings[0].severity == "error"
        assert findings[0].symbol == "Box.value"

    def test_describe_renders_both_stacks(self):
        with sanitize(**_QUIET) as san:
            box = _fresh_box_cls()()
            box.value = 0
            _sequenced_pair(lambda: setattr(box, "value", 1),
                            lambda: setattr(box, "value", 2))
        text = san.races[0].describe()
        assert "race on Box.value" in text
        assert "first access:" in text
        assert "second access:" in text
        assert "test_sanitizer" in text  # frames point at this file


class TestLifecycle:
    def test_nested_sanitizers_restore_the_outer_one(self):
        before = current_sanitizer()
        with sanitize(**_QUIET) as outer:
            with sanitize(**_QUIET) as inner:
                assert current_sanitizer() is inner
            assert current_sanitizer() is outer
        assert current_sanitizer() is before

    def test_double_activate_is_an_error(self):
        san = Sanitizer(**_QUIET)
        san.activate()
        try:
            with pytest.raises(RuntimeError):
                san.activate()
        finally:
            san.deactivate()

    def test_deactivate_restores_thread_start(self):
        _skip_under_outer_sanitizer()
        original = threading.Thread.start
        with sanitize(**_QUIET):
            assert threading.Thread.start is not original
        assert threading.Thread.start is original


class TestReportPipeline:
    def _report_with_one_violation(self, tmp_path):
        with sanitize() as san:
            leaf, chain = make_lock("clock"), make_rlock("vm")
            with leaf:
                with chain:
                    pass
        path = tmp_path / "sanitizer-report.json"
        san.write_report(str(path))
        return path

    def test_round_trip_preserves_findings(self, tmp_path):
        path = self._report_with_one_violation(tmp_path)
        findings = load_report(path)
        assert [f.rule_id for f in findings] == ["RACE002"]
        assert findings[0].severity == "error"

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "findings": []}\n')
        with pytest.raises(ValueError):
            load_report(path)

    def test_lint_gates_on_sanitizer_report(self, tmp_path):
        import io

        from repro.cli import main

        path = self._report_with_one_violation(tmp_path)
        out = io.StringIO()
        assert main(["lint", "--sanitizer-report", str(path)],
                    out=out) == 1
        assert "RACE002" in out.getvalue()

    def test_lint_passes_on_clean_report(self, tmp_path):
        import io

        from repro.cli import main

        with sanitize(**_QUIET) as san:
            with make_lock("clock"):
                pass
        path = tmp_path / "clean.json"
        san.write_report(str(path))
        out = io.StringIO()
        assert main(["lint", "--sanitizer-report", str(path)],
                    out=out) == 0
