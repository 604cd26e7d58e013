"""Deterministic open-loop load generation.

Closed-loop benches send request *t+1* when response *t* returns, so a
saturated server quietly slows the generator down and the latency
histogram never sees the queue building — the classic coordinated
omission.  This module fixes both halves:

* the arrival schedule is **precomputed** from a seed
  (:class:`ArrivalSchedule`), so a run is reproducible and the intended
  send time of every request is known before the first byte moves;
* latency is measured **from the intended send time**, not from
  whenever a sender thread got around to transmitting — a request that
  should have left at *t* and completed at *t+d* records *d* even when
  the generator itself fell behind, so server saturation shows up in
  the percentiles instead of hiding in the gaps between requests.

Closed-loop schedules are still supported (``ArrivalSchedule.open_loop``
false): there the intended send time *is* the actual send time, because
a closed loop by construction has no schedule to fall behind.

Metrics recorded into the registry (default names, ``prefix`` swaps the
``scenario`` root): ``scenario.requests`` / ``scenario.errors`` /
``scenario.errors.<ExceptionName>`` counters,
``scenario.latency.total_seconds`` and
``scenario.latency.send_lag_seconds`` histograms,
``scenario.inflight`` and ``scenario.duration_seconds`` gauges.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis import sanitizer as _sanitize
from repro.obs import runtime as _obs
from repro.obs.metrics import MetricsRegistry
from repro.scenarios.spec import ArrivalSpec

__all__ = ["ArrivalSchedule", "LoadResult", "run_load"]


class ArrivalSchedule:
    """Precomputed intended send times (seconds from generator start).

    Offsets are non-decreasing.  ``open_loop`` distinguishes the two
    latency-accounting regimes: open-loop latencies are measured from
    the scheduled offset, closed-loop latencies from the actual send.
    """

    __slots__ = ("offsets", "open_loop")

    def __init__(self, offsets: Sequence[float], *, open_loop: bool = True) -> None:
        values = tuple(float(offset) for offset in offsets)
        if any(offset < 0 for offset in values):
            raise ValueError("arrival offsets must be non-negative")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("arrival offsets must be non-decreasing")
        self.offsets = values
        self.open_loop = open_loop

    def __len__(self) -> int:
        return len(self.offsets)

    @classmethod
    def poisson(cls, count: int, *, rate: float, seed: int) -> "ArrivalSchedule":
        """``count`` Poisson arrivals at ``rate`` req/s, fully seeded."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate, size=count)
        return cls(np.cumsum(gaps).tolist(), open_loop=True)

    @classmethod
    def burst(cls, count: int, *, burst_size: int, interval: float) -> "ArrivalSchedule":
        """``count`` arrivals in simultaneous bursts every ``interval`` s."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if burst_size <= 0:
            raise ValueError(f"burst_size must be positive, got {burst_size}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        return cls([(i // burst_size) * interval for i in range(count)], open_loop=True)

    @classmethod
    def closed_loop(cls, count: int) -> "ArrivalSchedule":
        """``count`` requests sent as fast as the responses allow."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        return cls([0.0] * count, open_loop=False)

    @classmethod
    def from_spec(cls, arrival: ArrivalSpec, count: int, *, seed: int) -> "ArrivalSchedule":
        """Build the schedule an :class:`ArrivalSpec` describes."""
        # Individual arrivals pace exactly like Poisson traffic; only
        # what each arrival *sends* differs (a join, not a round).
        if arrival.kind in ("poisson", "individual"):
            assert arrival.rate is not None
            return cls.poisson(count, rate=arrival.rate, seed=seed)
        if arrival.kind == "burst":
            assert arrival.burst_size is not None and arrival.burst_interval is not None
            return cls.burst(count, burst_size=arrival.burst_size, interval=arrival.burst_interval)
        return cls.closed_loop(count)

    def __repr__(self) -> str:
        kind = "open-loop" if self.open_loop else "closed-loop"
        return f"ArrivalSchedule({len(self.offsets)} arrivals, {kind})"


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one load run (histograms live in the registry)."""

    requests: int
    errors: int
    duration_seconds: float

    @property
    def error_rate(self) -> float:
        """``errors / requests`` (0.0 when nothing was sent)."""
        return self.errors / self.requests if self.requests else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall time."""
        return self.requests / self.duration_seconds if self.duration_seconds > 0 else 0.0


def run_load(
    send: Callable[[int], Any],
    schedule: ArrivalSchedule,
    *,
    concurrency: int = 4,
    registry: "MetricsRegistry | None" = None,
    prefix: str = "scenario",
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> LoadResult:
    """Drive ``send(i)`` for every scheduled arrival; returns the totals.

    ``concurrency`` sender threads pull arrival indices in order from a
    shared cursor; an open-loop sender sleeps until the arrival's
    intended offset, then fires.  When every sender is stuck waiting on
    a slow system, later arrivals go out late — and their recorded
    latency *includes* that lateness, because it is measured from the
    intended send time (the generator also records the raw send lag so
    generator-side saturation is visible separately).

    Exceptions raised by ``send`` are counted (total plus per exception
    type) and swallowed: a load run measures failures, it does not stop
    on them.

    Args:
        send: callable performing request ``i``; its return value is
            ignored, exceptions mark the request failed.
        schedule: the precomputed arrival schedule.
        concurrency: sender-thread count.
        registry: metrics registry recording the run (defaults to the
            process-global registry).
        prefix: metric-name root (default ``scenario``).
        clock: injectable monotonic clock (tests fake it).
        sleep: injectable sleep (tests fake it).
    """
    if concurrency <= 0:
        raise ValueError(f"concurrency must be positive, got {concurrency}")
    metrics = registry if registry is not None else _obs.metrics_registry()
    latency = metrics.histogram(f"{prefix}.latency.total_seconds")
    send_lag = metrics.histogram(f"{prefix}.latency.send_lag_seconds")
    requests_counter = metrics.counter(f"{prefix}.requests")
    errors_counter = metrics.counter(f"{prefix}.errors")
    inflight = metrics.gauge(f"{prefix}.inflight")
    cursor_lock = _sanitize.lock("scenario.loadgen.cursor")
    cursor = iter(range(len(schedule)))
    counts_lock = _sanitize.lock("scenario.loadgen.counts")
    totals = {"requests": 0, "errors": 0}
    start = clock()

    def sender() -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            intended = start + schedule.offsets[index]
            if schedule.open_loop:
                delay = intended - clock()
                if delay > 0:
                    _sanitize.check_blocking("sleep(open-loop pacing)")
                    sleep(delay)
            sent = clock()
            # Closed loop has no schedule to fall behind: the intended
            # send time is the actual one.
            origin = intended if schedule.open_loop else sent
            if schedule.open_loop:
                send_lag.observe(max(0.0, sent - intended))
            inflight.inc()
            failed: "str | None" = None
            try:
                send(index)
            except Exception as error:  # noqa — load generation measures failures
                failed = type(error).__name__
            finally:
                inflight.dec()
            if failed is None:
                latency.observe(clock() - origin)
            else:
                errors_counter.inc()
                metrics.counter(f"{prefix}.errors.{failed}").inc()
            requests_counter.inc()
            with counts_lock:
                totals["requests"] += 1
                if failed is not None:
                    totals["errors"] += 1

    threads = [
        threading.Thread(target=sender, name=f"dygroups-loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    _sanitize.check_blocking("thread.join(loadgen)")
    for thread in threads:
        thread.join()
    duration = clock() - start
    metrics.gauge(f"{prefix}.duration_seconds").set(duration)
    return LoadResult(
        requests=totals["requests"], errors=totals["errors"], duration_seconds=duration
    )
