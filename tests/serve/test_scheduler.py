"""Unit tests for the round-step scheduler (step waves, backpressure)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.obs import runtime
from repro.serve.cache import GroupingCache
from repro.serve.config import ServeConfig
from repro.serve.errors import RequestTimeout, SchedulerSaturated, ServiceClosed
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import GroupingService


def _counter(name):
    return runtime.metrics_registry().counter(name).value


def _service_with_cohorts(count, *, n=12, k=3, mode="star", seed=11):
    """A worker-less service holding ``count`` identically-seeded cohorts.

    Identical payloads mean identical trajectories, so any cohort doubles
    as the bit-identity reference for any other.
    """
    service = GroupingService(ServeConfig(workers=0, cache_size=0))
    rng = np.random.default_rng(31)
    skills = rng.uniform(1.0, 9.0, size=n).tolist()
    ids = [
        service.create_cohort({"skills": skills, "k": k, "mode": mode, "seed": seed})["cohort"]
        for _ in range(count)
    ]
    return service, [service.store.get(cid) for cid in ids]


class _StallingCache:
    """Cache stand-in that parks the worker on its first proposal until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def _park(self) -> None:
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=10.0), "stalling cache never released"

    def propose_batch(self, arrays, k, mode):
        self._park()
        return GroupingCache().propose_batch(arrays, k, mode)

    def propose(self, skills, k, mode):
        self._park()
        return GroupingCache().propose(skills, k, mode)


def _park_worker(scheduler, stall, session):
    """Queue a lone one-round step; return its future once the worker is parked on it.

    Drained alone, the step is below any ``batch_min``, so the worker
    answers it through the inline kernel and stalls in the cache's
    ``propose``; every step queued after it waits for the release.
    """
    parked = scheduler.submit_step(session, 1)
    assert stall.entered.wait(timeout=10.0)
    return parked


class TestBackpressure:
    def test_saturation_rejects_not_queues(self):
        service, sessions = _service_with_cohorts(4)
        stall = _StallingCache()
        with service:
            scheduler = BatchScheduler(stall, workers=1, queue_depth=2, batch_max=1)
            try:
                blocker = _park_worker(scheduler, stall, sessions[0])
                queued = [scheduler.submit_step(session, 1) for session in sessions[1:3]]
                with pytest.raises(SchedulerSaturated):
                    scheduler.submit_step(sessions[3], 1)
                with pytest.raises(SchedulerSaturated):
                    scheduler.submit_step(sessions[3], 1)
                snapshot = runtime.metrics_registry().snapshot()
                assert snapshot["counters"]["serve.scheduler.rejections"]["value"] == 2
                stall.release.set()
                # Everything accepted before saturation still completes.
                for future in [blocker, *queued]:
                    records = future.result(timeout=10.0)
                    assert [r["round"] for r in records] == [0]
            finally:
                scheduler.close()

    def test_timeout_surfaces_as_request_timeout(self, monkeypatch):
        service, (subject,) = _service_with_cohorts(1)
        with service:
            scheduler = BatchScheduler(workers=2, parallelism=2)
            scheduler.close()  # workers gone: a queued step never resolves
            monkeypatch.setattr(scheduler, "_closed", False)
            # A backlog of one is enough to queue, so the lone step waits
            # on the queue instead of falling through inline.
            monkeypatch.setattr(scheduler, "batch_min", 1)
            with pytest.raises(RequestTimeout):
                scheduler.step_rounds(subject, 1, timeout=0.05)
            scheduler._closed = True


class TestLifecycle:
    def test_submit_after_close_is_503(self):
        service, (subject,) = _service_with_cohorts(1)
        with service:
            scheduler = BatchScheduler(workers=1)
            scheduler.close()
            with pytest.raises(ServiceClosed):
                scheduler.submit_step(subject, 1)

    def test_close_is_idempotent(self):
        scheduler = BatchScheduler(workers=2)
        scheduler.close()
        scheduler.close()
        assert scheduler.closed

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BatchScheduler(workers=0)
        with pytest.raises(ValueError):
            BatchScheduler(workers=1, queue_depth=0)
        with pytest.raises(ValueError):
            BatchScheduler(workers=1, batch_max=0)


class TestAdaptiveSteps:
    def test_workerless_service_bypasses_the_scheduler(self):
        service, (session,) = _service_with_cohorts(1)
        with service:
            falls = _counter("serve.scheduler.step_inline_fallthrough")
            waves = _counter("serve.scheduler.step_batches")
            service.advance_rounds(session.id, 3)
            assert service.scheduler is None
            assert _counter("serve.scheduler.step_inline_fallthrough") == falls
            assert _counter("serve.scheduler.step_batches") == waves

    def test_lone_step_falls_through_inline(self):
        service, (subject, reference) = _service_with_cohorts(2)
        with service:
            falls = _counter("serve.scheduler.step_inline_fallthrough")
            waves = _counter("serve.scheduler.step_batches")
            with BatchScheduler(workers=1, parallelism=4) as scheduler:
                records = scheduler.step_rounds(subject, 3)
            assert _counter("serve.scheduler.step_inline_fallthrough") - falls == 3
            assert _counter("serve.scheduler.step_batches") - waves == 0
            expected = [reference.advance_round() for _ in range(3)]
            assert [r["gain"] for r in records] == [r["gain"] for r in expected]
            assert [r["groups"] for r in records] == [r["groups"] for r in expected]

    def test_single_core_gate_forces_inline(self):
        service, sessions = _service_with_cohorts(5)
        reference = sessions[-1]
        with service:
            waves = _counter("serve.scheduler.step_batches")
            with BatchScheduler(workers=2, batch_min=2, parallelism=1) as scheduler:
                barrier = threading.Barrier(4)
                results: dict[int, list] = {}

                def drive(i):
                    barrier.wait(timeout=10.0)
                    results[i] = scheduler.step_rounds(sessions[i], 2)

                threads = [threading.Thread(target=drive, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            assert _counter("serve.scheduler.step_batches") - waves == 0, (
                "parallelism=1 must keep every step off the wave path"
            )
            expected = [reference.advance_round() for _ in range(2)]
            for records in results.values():
                assert [r["gain"] for r in records] == [r["gain"] for r in expected]

    def test_wave_is_bit_identical_to_inline(self):
        service, sessions = _service_with_cohorts(5)
        reference = sessions[-1]
        stall = _StallingCache()
        with service:
            scheduler = BatchScheduler(stall, workers=1, batch_min=2, parallelism=4)
            try:
                # Park the lone worker on a one-round step, enqueue three
                # same-configuration multi-round steps behind it, then let
                # the drain stack them into one wave.
                parked = _park_worker(scheduler, stall, sessions[0])
                waves = _counter("serve.scheduler.step_batches")
                futures = [scheduler.submit_step(s, 2) for s in sessions[1:4]]
                stall.release.set()
                parked.result(timeout=10.0)
                waved = [f.result(timeout=10.0) for f in futures]
            finally:
                scheduler.close()
            assert _counter("serve.scheduler.step_batches") - waves == 1
            expected = [reference.advance_round() for _ in range(2)]
            for records in waved:
                assert [r["gain"] for r in records] == [r["gain"] for r in expected]
                assert [r["groups"] for r in records] == [r["groups"] for r in expected]

    def test_undersized_wave_falls_through_at_drain(self):
        service, (parking, subject, reference) = _service_with_cohorts(3)
        stall = _StallingCache()
        with service:
            scheduler = BatchScheduler(stall, workers=1, batch_min=2, parallelism=4)
            try:
                parked = _park_worker(scheduler, stall, parking)
                # The parked step's own fall-through is counted before it parks.
                falls = _counter("serve.scheduler.step_inline_fallthrough")
                waves = _counter("serve.scheduler.step_batches")
                lone = scheduler.submit_step(subject, 2)
                stall.release.set()
                parked.result(timeout=10.0)
                records = lone.result(timeout=10.0)
            finally:
                scheduler.close()
            assert _counter("serve.scheduler.step_batches") - waves == 0
            assert _counter("serve.scheduler.step_inline_fallthrough") - falls == 2
            expected = [reference.advance_round() for _ in range(2)]
            assert [r["gain"] for r in records] == [r["gain"] for r in expected]

    def test_step_rounds_validation(self):
        service, (subject,) = _service_with_cohorts(1)
        with service:
            with BatchScheduler(workers=1) as scheduler:
                with pytest.raises(ValueError, match="rounds"):
                    scheduler.step_rounds(subject, 0)
                with pytest.raises(ValueError, match="rounds"):
                    scheduler.step_rounds(subject, True)

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="batch_min"):
            BatchScheduler(workers=1, batch_min=1)
        with pytest.raises(ValueError, match="batch_min"):
            BatchScheduler(workers=1, batch_min=True)
        with pytest.raises(ValueError, match="parallelism"):
            BatchScheduler(workers=1, parallelism=0)
        with pytest.raises(ValueError, match="parallelism"):
            BatchScheduler(workers=1, parallelism=True)
