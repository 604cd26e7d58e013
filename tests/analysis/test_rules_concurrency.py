"""Unit tests for the DYG4xx concurrency rules."""

from __future__ import annotations

import textwrap

from repro.analysis import LintEngine


def lint(source: str, select: str, path: str = "src/mod.py"):
    engine = LintEngine(select=select)
    return engine.lint_source(textwrap.dedent(source), path=path)


class TestUnguardedSharedState:
    def test_flags_write_outside_lock(self):
        diagnostics = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    self.count += 1
            """,
            "DYG401",
        )
        assert [d.code for d in diagnostics] == ["DYG401"]
        assert "self.count" in diagnostics[0].message

    def test_guarded_write_is_clean(self):
        assert not lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
            """,
            "DYG401",
        )

    def test_sanitizer_factory_counts_as_lock_owner(self):
        diagnostics = lint(
            """
            from repro.analysis import sanitizer as _sanitize

            class Store:
                def __init__(self):
                    self._lock = _sanitize.lock("store")
                    self.count = 0

                def bump(self):
                    self.count += 1
            """,
            "DYG401",
        )
        assert [d.code for d in diagnostics] == ["DYG401"]

    def test_locked_suffix_methods_exempt(self):
        assert not lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump_locked(self):
                    self.count += 1
            """,
            "DYG401",
        )

    def test_manual_acquire_methods_exempt(self):
        # Sorted multi-lock acquisition: explicit acquire/release
        # cannot be region-tracked statically; the sanitizer owns it.
        assert not lint(
            """
            import threading

            class Wave:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = 0

                def run(self):
                    self._lock.acquire()
                    try:
                        self.state = 1
                    finally:
                        self._lock.release()
            """,
            "DYG401",
        )

    def test_lockless_class_is_ignored(self):
        assert not lint(
            """
            class Plain:
                def bump(self):
                    self.count = 1
            """,
            "DYG401",
        )

    def test_nested_function_writes_not_flagged(self):
        assert not lint(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def build(self):
                    def inner():
                        self.count = 1
                    return inner
            """,
            "DYG401",
        )


class TestLockOrderingCycle:
    def test_opposite_order_pair_is_a_cycle(self):
        # The static shape of the deliberate runtime inversion fixture in
        # test_sanitizer.py: two functions, opposite acquisition order.
        diagnostics = lint(
            """
            import threading

            lock_a = threading.Lock()
            lock_b = threading.Lock()

            def forward():
                with lock_a:
                    with lock_b:
                        pass

            def backward():
                with lock_b:
                    with lock_a:
                        pass
            """,
            "DYG402",
        )
        assert [d.code for d in diagnostics] == ["DYG402", "DYG402"]

    def test_consistent_order_is_clean(self):
        assert not lint(
            """
            import threading

            lock_a = threading.Lock()
            lock_b = threading.Lock()

            def one():
                with lock_a:
                    with lock_b:
                        pass

            def two():
                with lock_a:
                    with lock_b:
                        pass
            """,
            "DYG402",
        )

    def test_multi_item_with_orders_left_to_right(self):
        diagnostics = lint(
            """
            import threading

            lock_a = threading.Lock()
            lock_b = threading.Lock()

            def one():
                with lock_a, lock_b:
                    pass

            def two():
                with lock_b, lock_a:
                    pass
            """,
            "DYG402",
        )
        assert len(diagnostics) == 2

    def test_self_attribute_locks_participate(self):
        diagnostics = lint(
            """
            class Pair:
                def ab(self):
                    with self._lock_a:
                        with self._lock_b:
                            pass

                def ba(self):
                    with self._lock_b:
                        with self._lock_a:
                            pass
            """,
            "DYG402",
        )
        assert len(diagnostics) == 2


class TestBlockingCallUnderLock:
    def test_sleep_and_queue_get_under_lock(self):
        diagnostics = lint(
            """
            import threading
            import time

            lock = threading.Lock()

            def drain(work_queue):
                with lock:
                    time.sleep(0.1)
                    item = work_queue.get()
            """,
            "DYG403",
        )
        assert [d.code for d in diagnostics] == ["DYG403", "DYG403"]

    def test_blocking_outside_lock_is_clean(self):
        assert not lint(
            """
            import threading
            import time

            lock = threading.Lock()

            def drain(work_queue):
                item = work_queue.get()
                time.sleep(0.1)
                with lock:
                    record(item)
            """,
            "DYG403",
        )

    def test_subprocess_and_future_result(self):
        diagnostics = lint(
            """
            import subprocess
            import threading

            lock = threading.Lock()

            def run(future):
                with lock:
                    subprocess.run(["true"])
                    future.result()
            """,
            "DYG403",
        )
        assert len(diagnostics) == 2

    def test_plain_dict_get_not_flagged(self):
        assert not lint(
            """
            import threading

            lock = threading.Lock()

            def read(mapping):
                with lock:
                    return mapping.get("key")
            """,
            "DYG403",
        )

    def test_nested_def_body_not_charged_to_lock(self):
        # The with block only *defines* the worker; its body runs later.
        assert not lint(
            """
            import threading
            import time

            lock = threading.Lock()

            def build():
                with lock:
                    def worker():
                        time.sleep(1)
                    return worker
            """,
            "DYG403",
        )


class TestProcessSpawnUnderLock:
    def test_executor_under_lock(self):
        diagnostics = lint(
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            lock = threading.Lock()

            def spawn():
                with lock:
                    return ProcessPoolExecutor(4)
            """,
            "DYG404",
        )
        assert [d.code for d in diagnostics] == ["DYG404"]

    def test_os_fork_and_multiprocessing(self):
        diagnostics = lint(
            """
            import multiprocessing
            import os
            import threading

            lock = threading.Lock()

            def spawn():
                with lock:
                    if os.fork() == 0:
                        return
                    multiprocessing.Process(target=print)
            """,
            "DYG404",
        )
        assert len(diagnostics) == 2

    def test_spawn_outside_lock_is_clean(self):
        assert not lint(
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            lock = threading.Lock()

            def spawn():
                pool = ProcessPoolExecutor(4)
                with lock:
                    register(pool)
                return pool
            """,
            "DYG404",
        )


class TestSuppression:
    def test_noqa_with_reason_suppresses(self):
        source = textwrap.dedent(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    self.count = 1  # noqa: DYG401 — single-threaded bootstrap path
            """
        )
        assert not LintEngine(select="DYG401").lint_source(source, path="src/mod.py")
