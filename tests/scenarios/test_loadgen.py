"""Unit tests for repro.scenarios.loadgen (schedules + open-loop driving)."""

from __future__ import annotations

import pytest

from repro.obs.metrics import BUCKETS_PER_OCTAVE, MetricsRegistry
from repro.scenarios.loadgen import ArrivalSchedule, run_load
from repro.scenarios.spec import ArrivalSpec


class FakeClock:
    """A controllable clock whose sleep advances time instantly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestArrivalSchedule:
    def test_poisson_is_seed_deterministic(self):
        a = ArrivalSchedule.poisson(50, rate=100.0, seed=7)
        b = ArrivalSchedule.poisson(50, rate=100.0, seed=7)
        c = ArrivalSchedule.poisson(50, rate=100.0, seed=8)
        assert a.offsets == b.offsets
        assert a.offsets != c.offsets
        assert a.open_loop

    def test_poisson_offsets_non_decreasing(self):
        schedule = ArrivalSchedule.poisson(100, rate=10.0, seed=0)
        assert all(b >= a for a, b in zip(schedule.offsets, schedule.offsets[1:]))

    def test_burst_shape(self):
        schedule = ArrivalSchedule.burst(6, burst_size=3, interval=0.5)
        assert schedule.offsets == (0.0, 0.0, 0.0, 0.5, 0.5, 0.5)

    def test_closed_loop_is_all_zero_and_not_open(self):
        schedule = ArrivalSchedule.closed_loop(4)
        assert schedule.offsets == (0.0, 0.0, 0.0, 0.0)
        assert not schedule.open_loop

    def test_from_spec_dispatch(self):
        poisson = ArrivalSchedule.from_spec(ArrivalSpec(kind="poisson", rate=5.0), 10, seed=3)
        burst = ArrivalSchedule.from_spec(
            ArrivalSpec(kind="burst", burst_size=2, burst_interval=1.0), 4, seed=3
        )
        closed = ArrivalSchedule.from_spec(ArrivalSpec(), 4, seed=3)
        assert poisson.open_loop and burst.open_loop and not closed.open_loop
        assert burst.offsets == (0.0, 0.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            ArrivalSchedule([-1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            ArrivalSchedule([1.0, 0.5])
        with pytest.raises(ValueError, match="count"):
            ArrivalSchedule.closed_loop(0)
        with pytest.raises(ValueError, match="rate"):
            ArrivalSchedule.poisson(5, rate=0.0, seed=0)


class TestRunLoad:
    def test_counts_and_result(self):
        registry = MetricsRegistry()
        seen = []
        result = run_load(
            seen.append, ArrivalSchedule.closed_loop(8), concurrency=2, registry=registry
        )
        assert result.requests == 8
        assert result.errors == 0
        assert sorted(seen) == list(range(8))
        assert registry.counter("scenario.requests").value == 8
        assert registry.histogram("scenario.latency.total_seconds").count == 8

    def test_errors_counted_per_type_and_excluded_from_latency(self):
        registry = MetricsRegistry()

        def send(index: int) -> None:
            if index % 2:
                raise RuntimeError("boom")

        result = run_load(
            send, ArrivalSchedule.closed_loop(6), concurrency=1, registry=registry
        )
        assert result.requests == 6
        assert result.errors == 3
        assert result.error_rate == pytest.approx(0.5)
        assert registry.counter("scenario.errors").value == 3
        assert registry.counter("scenario.errors.RuntimeError").value == 3
        assert registry.histogram("scenario.latency.total_seconds").count == 3

    def test_latency_histograms_are_retention_bounded(self):
        registry = MetricsRegistry()
        run_load(
            lambda i: None,
            ArrivalSchedule.closed_loop(3),
            concurrency=1,
            registry=registry,
        )
        histogram = registry.histogram("scenario.latency.total_seconds")
        for i in range(10_000):
            histogram.observe(1e-4 * (1 + i / 100))
        # Bounded by construction: 10,000 distinct values within a factor
        # of 101 (under seven octaves) share at most 8 octaves of buckets.
        assert histogram.count == 10_003
        assert not hasattr(histogram, "values")
        assert len(histogram.snapshot()["buckets"]) <= 8 * BUCKETS_PER_OCTAVE

    def test_open_loop_latency_measured_from_intended_send_time(self):
        """Coordinated omission: a slow handler delays later sends, and
        that queueing delay must appear in the recorded latencies."""
        clock = FakeClock()
        registry = MetricsRegistry()

        def slow_send(index: int) -> None:
            clock.advance(0.05)

        # Three arrivals all due at t=0 behind ONE sender: request i
        # goes out i*0.05 late, so its latency is (i+1)*0.05 even though
        # each individually took 0.05s of service time.
        run_load(
            slow_send,
            ArrivalSchedule([0.0, 0.0, 0.0], open_loop=True),
            concurrency=1,
            registry=registry,
            clock=clock,
            sleep=clock.sleep,
        )
        latencies = registry.histogram("scenario.latency.total_seconds")
        assert latencies.count == 3
        assert (latencies.min, latencies.max) == pytest.approx((0.05, 0.15))
        assert latencies.total == pytest.approx(0.30)
        lags = registry.histogram("scenario.latency.send_lag_seconds")
        assert lags.count == 3
        assert (lags.min, lags.max) == pytest.approx((0.0, 0.10))
        assert lags.total == pytest.approx(0.15)

    def test_closed_loop_latency_measured_from_actual_send(self):
        clock = FakeClock()
        registry = MetricsRegistry()

        def slow_send(index: int) -> None:
            clock.advance(0.05)

        run_load(
            slow_send,
            ArrivalSchedule.closed_loop(3),
            concurrency=1,
            registry=registry,
            clock=clock,
            sleep=clock.sleep,
        )
        latencies = registry.histogram("scenario.latency.total_seconds")
        assert latencies.count == 3
        assert (latencies.min, latencies.max) == pytest.approx((0.05, 0.05))
        assert latencies.total == pytest.approx(0.15)
        assert registry.histogram("scenario.latency.send_lag_seconds").count == 0

    def test_open_loop_sender_sleeps_until_offset(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        sent_at = []

        def send(index: int) -> None:
            sent_at.append(clock.now)

        run_load(
            send,
            ArrivalSchedule([0.1, 0.2, 0.4], open_loop=True),
            concurrency=1,
            registry=registry,
            clock=clock,
            sleep=clock.sleep,
        )
        assert sent_at == pytest.approx([0.1, 0.2, 0.4])

    def test_duration_gauge_set(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        run_load(
            lambda i: clock.advance(0.01),
            ArrivalSchedule.closed_loop(4),
            concurrency=1,
            registry=registry,
            clock=clock,
            sleep=clock.sleep,
        )
        assert registry.gauge("scenario.duration_seconds").value == pytest.approx(0.04)

    def test_concurrency_validated(self):
        with pytest.raises(ValueError, match="concurrency"):
            run_load(lambda i: None, ArrivalSchedule.closed_loop(1), concurrency=0)

    def test_prefix_overrides_metric_root(self):
        registry = MetricsRegistry()
        run_load(
            lambda i: None,
            ArrivalSchedule.closed_loop(2),
            concurrency=1,
            registry=registry,
            prefix="bench",
        )
        assert registry.counter("bench.requests").value == 2
