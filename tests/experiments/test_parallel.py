"""Tests for the process-parallel executor (:mod:`repro.experiments.parallel`).

The contract under test is determinism: chunking the (grid point × run)
work list over worker processes must leave every gain field of every
outcome *exactly* equal to serial execution — same per-run seeds, same
accumulator order, same float reductions.  Timing fields measure real
concurrent work and are deliberately excluded from the comparisons.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.experiments import runner
from repro.experiments.parallel import (
    WORKERS_ENV,
    WorkerPool,
    WorkerPoolError,
    resolve_workers,
    run_spec_parallel,
    shared_pool,
    shutdown_shared_pool,
    sweep_outcomes_parallel,
)
from repro.obs import runtime
from repro.obs.journal import read_journal
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import sweep_outcomes


@pytest.fixture(scope="module")
def spec():
    return ExperimentSpec(
        n=40,
        k=4,
        alpha=2,
        runs=4,
        seed=5,
        algorithms=("dygroups", "random", "percentile"),
    )


def assert_gains_equal(a, b):
    """Every gain field of two spec outcomes is exactly equal."""
    assert set(a.outcomes) == set(b.outcomes)
    for name in a.outcomes:
        left, right = a.outcomes[name], b.outcomes[name]
        assert left.mean_total_gain == right.mean_total_gain
        assert left.std_total_gain == right.std_total_gain
        assert left.mean_round_gains == right.mean_round_gains


class TestResolveWorkers:
    def test_none_and_zero_default_to_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1

    def test_explicit_count_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_fills_in_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "6")
        assert resolve_workers() == 6
        assert resolve_workers(0) == 6

    def test_non_positive_env_means_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers() == 1
        monkeypatch.setenv(WORKERS_ENV, "-3")
        assert resolve_workers() == 1

    def test_rejects_negative_and_non_int(self):
        with pytest.raises(ValueError, match="non-negative int"):
            resolve_workers(-1)
        with pytest.raises(ValueError, match="non-negative int"):
            resolve_workers(2.5)
        with pytest.raises(ValueError, match="non-negative int"):
            resolve_workers(True)

    def test_rejects_non_integer_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()


class TestSpecKnobs:
    def test_spec_rejects_bad_engine(self):
        with pytest.raises(ValueError, match="engine"):
            ExperimentSpec(engine="turbo")

    def test_spec_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExperimentSpec(workers=-1)

    def test_spec_accepts_knobs(self):
        spec = ExperimentSpec(engine="vectorized", workers=4)
        assert spec.engine == "vectorized"
        assert spec.workers == 4


class TestRunSpecParallel:
    def test_parallel_equals_serial(self, spec):
        serial = run_spec(spec)
        parallel = run_spec(spec, workers=2)
        assert_gains_equal(serial, parallel)

    def test_spec_workers_field_routes(self, spec):
        serial = run_spec(spec)
        parallel = run_spec(spec.with_(workers=2))
        assert_gains_equal(serial, parallel)

    def test_env_variable_routes(self, spec, monkeypatch):
        serial = run_spec(spec)
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = run_spec(spec)
        assert_gains_equal(serial, parallel)

    def test_more_workers_than_runs(self, spec):
        serial = run_spec(spec)
        parallel = run_spec(spec, workers=16)
        assert_gains_equal(serial, parallel)

    def test_scalar_engine_parallel_equals_serial(self, spec):
        forced = spec.with_(engine="scalar")
        assert_gains_equal(run_spec(forced), run_spec(forced, workers=2))

    def test_keep_results_parity(self, spec):
        serial, raw_serial = run_spec(spec, keep_results=True)
        parallel, raw_parallel = run_spec(spec, keep_results=True, workers=2)
        assert_gains_equal(serial, parallel)
        assert set(raw_serial) == set(raw_parallel)
        for name in raw_serial:
            assert len(raw_parallel[name]) == spec.runs
            for left, right in zip(raw_serial[name], raw_parallel[name]):
                assert left.round_gains.tolist() == right.round_gains.tolist()

    def test_single_run_falls_back_to_serial(self, spec):
        one = spec.with_(runs=1)
        assert_gains_equal(run_spec(one), run_spec_parallel(one, workers=2))

    def test_parent_process_draws_no_skills(self, spec, monkeypatch):
        serial = run_spec(spec)
        draws = []
        original = runner.draw_skills

        def counting_draw(spec, run_index):
            # A worker forked while this is patched appends to its own
            # copy of the list, so the parent's list counts parent draws.
            draws.append(run_index)
            return original(spec, run_index)

        monkeypatch.setattr(runner, "draw_skills", counting_draw)
        parallel = run_spec_parallel(spec, workers=2)
        assert draws == []
        assert_gains_equal(serial, parallel)


class TestSweepParallel:
    def test_parallel_sweep_equals_serial(self, spec):
        serial = sweep_outcomes(spec, "k", [2, 4])
        parallel = sweep_outcomes(spec, "k", [2, 4], workers=2)
        assert len(serial) == len(parallel)
        for left, right in zip(serial, parallel):
            assert left.spec.k == right.spec.k
            assert_gains_equal(left, right)

    def test_parallel_sweep_direct_entry_point(self, spec):
        serial = sweep_outcomes(spec, "alpha", [1, 3])
        parallel = sweep_outcomes_parallel(spec, "alpha", [1, 3], workers=3)
        for left, right in zip(serial, parallel):
            assert_gains_equal(left, right)

    def test_parallel_sweep_validates_like_serial(self, spec):
        with pytest.raises(ValueError, match="parameter"):
            sweep_outcomes_parallel(spec, "runs", [1, 2], workers=2)
        with pytest.raises(ValueError, match="non-empty"):
            sweep_outcomes_parallel(spec, "k", [], workers=2)


def _crash_chunk(payload):
    """Module-level so the executor can pickle it; kills the worker."""
    import os as _os

    _os._exit(13)


class TestWorkerPool:
    def test_pool_is_reused_across_calls(self, spec):
        serial = run_spec(spec)
        with WorkerPool(2) as pool:
            first = run_spec_parallel(spec, workers=2, pool=pool)
            executor = pool.ensure()
            second = run_spec_parallel(spec, workers=2, pool=pool)
            assert pool.ensure() is executor, "a borrowed pool must stay warm"
            assert pool.chunks_served > 0
        assert_gains_equal(serial, first)
        assert_gains_equal(serial, second)
        assert not pool.started, "context exit must close the workers"

    def test_pool_serves_sweeps_and_specs_alike(self, spec):
        with WorkerPool(2) as pool:
            parallel = sweep_outcomes_parallel(spec, "k", [2, 4], workers=2, pool=pool)
        serial = sweep_outcomes(spec, "k", [2, 4])
        for left, right in zip(serial, parallel):
            assert_gains_equal(left, right)

    def test_worker_crash_raises_and_pool_respawns(self, spec):
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerPoolError, match="worker process died"):
                list(pool.map_chunks(_crash_chunk, [None, None]))
            assert not pool.started, "a broken pool must be abandoned"
            # The next use forks a fresh pool and serves correct results.
            reborn = run_spec_parallel(spec, workers=2, pool=pool)
        assert_gains_equal(run_spec(spec), reborn)

    def test_idle_worker_death_raises_once_and_pool_respawns(self, spec):
        serial = run_spec(spec)
        depth = runtime.metrics_registry().gauge("parallel.pool.queue_depth")
        with WorkerPool(2) as pool:
            executor = pool.ensure()
            os.kill(executor.submit(os.getpid).result(), signal.SIGKILL)
            # The stdlib executor marks itself broken once its manager
            # thread reaps the dead worker.
            deadline = time.monotonic() + 5.0
            while not executor._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executor._broken, "the executor never saw the worker die"
            before = depth.value
            with pytest.raises(WorkerPoolError, match="worker process died"):
                run_spec_parallel(spec, workers=2, pool=pool)
            assert not pool.started, "a broken pool must be abandoned"
            assert depth.value == before
            reborn = run_spec_parallel(spec, workers=2, pool=pool)
        assert_gains_equal(serial, reborn)

    def test_warmup_timer_and_journal_lifecycle(self, spec, tmp_path):
        path = tmp_path / "pool.jsonl"
        with runtime.observed(journal=path):
            with WorkerPool(2) as pool:
                run_spec_parallel(spec, workers=2, pool=pool)
            registry = runtime.metrics_registry()
            snapshot = registry.snapshot()
        timers = {**snapshot.get("timers", {}), **snapshot.get("histograms", {})}
        assert any("parallel.pool.warmup_seconds" in name for name in timers), (
            f"warmup timer missing from {sorted(timers)}"
        )
        events = [record["event"] for record in read_journal(path)]
        assert "pool_start" in events
        assert "pool_stop" in events

    def test_queue_depth_gauge_returns_to_zero(self, spec):
        with WorkerPool(2) as pool:
            run_spec_parallel(spec, workers=2, pool=pool)
            from repro.obs import runtime as _rt

            gauge = _rt.metrics_registry().gauge("parallel.pool.queue_depth")
            assert gauge.value == 0

    def test_shared_pool_is_process_wide_and_resizes(self):
        try:
            first = shared_pool(2)
            assert shared_pool(2) is first
            resized = shared_pool(3)
            assert resized is not first
            assert resized.workers == 3
        finally:
            shutdown_shared_pool()
        assert not resized.started
