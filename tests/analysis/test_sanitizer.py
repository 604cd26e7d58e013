"""Runtime lock-sanitizer tests: detection, sanctioned idioms, off-path.

The deliberate inversion fixture runs its two opposite-order threads
*sequentially* — the sanitizer detects cycles on the accumulated
name-level acquisition graph, so actually interleaving the threads (and
deadlocking the test runner) is unnecessary.
"""

from __future__ import annotations

import _thread
import threading

import pytest

from repro.analysis import sanitizer
from repro.cli import main
from repro.obs import runtime


@pytest.fixture(autouse=True)
def _clean_runtime():
    runtime.shutdown()
    runtime.metrics_registry().reset()
    sanitizer.reset()
    yield
    runtime.shutdown()
    runtime.metrics_registry().reset()
    sanitizer.reset()


def _run_thread(target) -> None:
    thread = threading.Thread(target=target)
    thread.start()
    thread.join()


class TestOrderInversion:
    def test_opposite_order_threads_report_cycle(self):
        with sanitizer.sanitize_scope():
            lock_a = sanitizer.lock("fixture.a")
            lock_b = sanitizer.lock("fixture.b")

            def forward():
                with lock_a:
                    with lock_b:  # noqa: DYG402 — deliberate inversion fixture (this file *is* the violation corpus)
                        pass

            def backward():
                with lock_b:
                    with lock_a:  # noqa: DYG402 — deliberate inversion fixture (this file *is* the violation corpus)
                        pass

            _run_thread(forward)
            _run_thread(backward)
        reports = sanitizer.reports()
        assert len(reports) == 1
        assert reports[0]["kind"] == "order_inversion"
        assert "fixture.a" in reports[0]["message"]
        assert "fixture.b" in reports[0]["message"]

    def test_consistent_order_is_clean(self):
        with sanitizer.sanitize_scope():
            lock_a = sanitizer.lock("fixture.a")
            lock_b = sanitizer.lock("fixture.b")
            for _ in range(3):
                with lock_a:
                    with lock_b:  # noqa: DYG402 — deliberate inversion fixture (this file *is* the violation corpus)
                        pass
        assert sanitizer.reports() == ()

    def test_inversion_emits_journal_event_and_counter(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        with sanitizer.sanitize_scope():
            runtime.configure(journal=str(journal_path))
            lock_a = sanitizer.lock("fixture.a")
            lock_b = sanitizer.lock("fixture.b")

            def forward():
                with lock_a:
                    with lock_b:  # noqa: DYG402 — deliberate inversion fixture (this file *is* the violation corpus)
                        pass

            def backward():
                with lock_b:
                    with lock_a:  # noqa: DYG402 — deliberate inversion fixture (this file *is* the violation corpus)
                        pass

            _run_thread(forward)
            _run_thread(backward)
            registry = runtime.metrics_registry()
            assert registry.counter("sanitizer.order_inversions").value == 1
            assert registry.counter("sanitizer.reports").value == 1
            runtime.shutdown()
        from repro.obs.journal import read_journal

        events = [r for r in read_journal(journal_path) if r["event"].startswith("sanitizer.")]
        assert len(events) == 1
        assert events[0]["event"] == "sanitizer.order_inversion"

    def test_report_deduplicates_repeated_inversions(self):
        with sanitizer.sanitize_scope():
            lock_a = sanitizer.lock("fixture.a")
            lock_b = sanitizer.lock("fixture.b")

            def forward():
                with lock_a:
                    with lock_b:  # noqa: DYG402 — deliberate inversion fixture (this file *is* the violation corpus)
                        pass

            def backward():
                with lock_b:
                    with lock_a:  # noqa: DYG402 — deliberate inversion fixture (this file *is* the violation corpus)
                        pass

            _run_thread(forward)
            _run_thread(backward)
            _run_thread(backward)
        assert len(sanitizer.reports()) == 1


class TestSortedWaveRank:
    def test_ascending_ranks_are_sanctioned(self):
        # Sorted acquisition: same-name per-item locks acquired in key
        # order, each constructed with its key as the rank.
        with sanitizer.sanitize_scope():
            locks = [
                sanitizer.lock("serve.session", rank=f"c{i:06d}") for i in range(1, 5)
            ]
            for entry in locks:
                entry.acquire()
            for entry in reversed(locks):
                entry.release()
        assert sanitizer.reports() == ()

    def test_descending_ranks_are_reported(self):
        with sanitizer.sanitize_scope():
            first = sanitizer.lock("serve.session", rank="c000002")
            second = sanitizer.lock("serve.session", rank="c000001")
            first.acquire()
            second.acquire()
            second.release()
            first.release()
        reports = sanitizer.reports()
        assert len(reports) == 1
        assert "strictly increasing rank" in reports[0]["message"]

    def test_unranked_same_name_nesting_is_reported(self):
        with sanitizer.sanitize_scope():
            first = sanitizer.lock("pool")
            second = sanitizer.lock("pool")
            first.acquire()
            second.acquire()
            second.release()
            first.release()
        assert len(sanitizer.reports()) == 1


class TestReentrancy:
    def test_rlock_reentry_is_clean(self):
        with sanitizer.sanitize_scope():
            entry = sanitizer.rlock("store")
            with entry:
                with entry:  # delete() -> get() convention in SessionStore
                    pass
        assert sanitizer.reports() == ()


class TestBlockingDetection:
    def test_blocking_while_holding_reports(self):
        with sanitizer.sanitize_scope():
            guard = sanitizer.lock("guard")
            with guard:
                sanitizer.check_blocking("queue.get(test)")
        reports = sanitizer.reports()
        assert len(reports) == 1
        assert reports[0]["kind"] == "blocking_call"
        assert reports[0]["held"] == ["guard"]

    def test_blocking_without_lock_is_clean(self):
        with sanitizer.sanitize_scope():
            sanitizer.check_blocking("queue.get(test)")
        assert sanitizer.reports() == ()

    def test_disabled_marker_is_noop(self):
        sanitizer.disable_sanitizer()
        sanitizer.check_blocking("anything")
        assert sanitizer.reports() == ()


class TestOffPathIsNoOp:
    """PR-1 style: disabled instrumentation must not exist at all."""

    def test_factories_return_bare_stdlib_locks(self):
        sanitizer.disable_sanitizer()
        plain = sanitizer.lock("anything")
        assert type(plain) is _thread.LockType
        assert type(plain) is type(threading.Lock())
        reentrant = sanitizer.rlock("anything")
        assert type(reentrant) is type(threading.RLock())

    def test_enabled_factories_return_wrappers(self):
        with sanitizer.sanitize_scope():
            assert type(sanitizer.lock("x")) is sanitizer.SanitizedLock
            assert type(sanitizer.rlock("x")) is sanitizer.SanitizedLock

    def test_disabled_run_registers_no_metrics(self):
        sanitizer.disable_sanitizer()
        registry = runtime.metrics_registry()
        entry = sanitizer.lock("x")
        with entry:
            sanitizer.check_blocking("marker")
        assert len(registry) == 0
        assert sanitizer.reports() == ()

    def test_disabled_lock_has_no_wrapper_overhead(self):
        # Regression guard: if someone makes the disabled factory return a
        # wrapper instead of a bare stdlib lock, acquire/release cost jumps
        # by an order of magnitude and this trips long before users notice.
        import timeit

        sanitizer.disable_sanitizer()
        factory_lock = sanitizer.lock("perf")
        stdlib_lock = threading.Lock()

        def cost(target) -> float:
            timer = timeit.Timer(
                "target.acquire(); target.release()", globals={"target": target}
            )
            return min(timer.repeat(repeat=5, number=20_000))

        ratio = cost(factory_lock) / cost(stdlib_lock)
        assert ratio < 2.5, f"disabled sanitizer lock is {ratio:.1f}x a bare Lock"

    def test_scope_restores_prior_state(self):
        sanitizer.disable_sanitizer()
        with sanitizer.sanitize_scope():
            assert sanitizer.sanitizer_enabled()
        assert not sanitizer.sanitizer_enabled()
        with sanitizer.sanitize_scope(False):
            assert not sanitizer.sanitizer_enabled()


class TestSummarize:
    def test_summarize_journal_records(self):
        records = [
            {"event": "journal_open", "seq": 0},
            {"event": "sanitizer.order_inversion", "message": "cycle", "thread": "T"},
            {"event": "sanitizer.blocking_call", "message": "blocked", "thread": "T"},
            {"event": "journal_close", "seq": 3},
        ]
        summary = sanitizer.summarize_reports(records)
        assert summary["total"] == 2
        assert summary["by_kind"] == {"blocking_call": 1, "order_inversion": 1}

    def test_summarize_raw_reports(self):
        with sanitizer.sanitize_scope():
            guard = sanitizer.lock("guard")
            with guard:
                sanitizer.check_blocking("marker")
        summary = sanitizer.summarize_reports(sanitizer.reports())
        assert summary["total"] == 1
        assert summary["by_kind"] == {"blocking_call": 1}


class TestCliSanitizeReport:
    def _write_journal(self, tmp_path, *, with_findings: bool) -> str:
        journal_path = tmp_path / "run.jsonl"
        with sanitizer.sanitize_scope():
            runtime.configure(journal=str(journal_path))
            guard = sanitizer.lock("guard")
            with guard:
                if with_findings:
                    sanitizer.check_blocking("queue.get(test)")
            runtime.shutdown()
        return str(journal_path)

    def test_clean_journal_exits_zero(self, tmp_path, capsys):
        path = self._write_journal(tmp_path, with_findings=False)
        assert main(["sanitize", "report", path]) == 0
        assert "no sanitizer reports" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = self._write_journal(tmp_path, with_findings=True)
        assert main(["sanitize", "report", path]) == 1
        out = capsys.readouterr().out
        assert "blocking_call" in out
        assert "1 sanitizer report(s)" in out

    def test_missing_journal_exits_two(self, tmp_path):
        assert main(["sanitize", "report", str(tmp_path / "absent.jsonl")]) == 2

    def test_sanitize_flag_enables_switch(self):
        # --sanitize on any workload subcommand flips the global switch
        # exactly like --contracts does for contracts.
        sanitizer.disable_sanitizer()
        assert main(["toy", "--sanitize"]) == 0
        assert sanitizer.sanitizer_enabled()
