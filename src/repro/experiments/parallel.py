"""The offline executor: every (spec, run) unit, in-process or on a warm pool.

Every run of a spec derives all of its randomness from ``spec.seed + i``
and nothing else, and the stacked-trial kernels of
:mod:`repro.core.vectorized` are row-independent — so the full work list
of a run, a sweep or a grid, the cross product of (spec × run), can be
chunked over worker processes in any way and merged back into
**bit-identical** outcomes.  This module owns that work list:

* :func:`execute` — the one executor behind
  :func:`~repro.experiments.runner.run_spec`,
  :func:`~repro.experiments.sweep.sweep_outcomes` and
  :func:`~repro.experiments.grid.run_grid`: serial work runs in-process,
  anything else is chunked over the shared pool;
* :func:`resolve_workers` — validates the ``workers`` count the drivers
  take from their argument, else from ``spec.workers`` (``None``, ``0``
  and ``1`` all mean serial);
* :class:`WorkerPool` — the **persistent warm pool**: the worker
  processes fork once (at first use, timed into
  ``parallel.pool.warmup_seconds``) and stay resident across calls, so
  every call after the first pays zero spawn cost.  The process-wide
  :func:`shared_pool` is the only pool the executor runs on.

Work is **streamed**, not pre-split: the unit list is cut into
``workers × STREAM_FACTOR`` contiguous chunks that idle workers pull as
they finish, so an unlucky slow chunk no longer serializes the whole
sweep behind one worker.  A call reuses a warm pool of ``min(workers,
units)`` to ``workers`` processes, or else builds one of ``min(workers, units)``.

Each worker **draws its own runs' skills**: a chunk carries only specs
and (spec index, run index) units, and the worker makes the identical
:func:`~repro.experiments.runner.draw_skills` calls the serial path
makes (run ``i`` seeds ``spec.seed + i``), so no skill array crosses a
process boundary and the parent draws nothing.

Determinism contract: units are ordered (spec, run index), split into
contiguous chunks, executed with the exact same per-run seeds and
initial skills as serial execution, and merged in chunk submission order
— so every accumulator list the outcome assembly sees is identical to
the serial one.  Gains are therefore exactly equal; only wall-clock
timing fields differ (they measure real, now-concurrent work).

Observability: forked workers inherit the parent's wiring, so each worker
first calls :func:`repro.obs.runtime.detach` (dropping the parent's
journal file descriptor without closing it), resets its inherited metrics
registry, and re-enables metrics-only collection; each chunk resets the
worker registry again so its snapshot covers exactly that chunk even on a
long-lived warm pool.  The parent journals ``pool_start`` /
``pool_stop`` (pool lifecycle) and ``parallel_start`` /
``parallel_chunk`` / ``parallel_end`` events, merges every worker's
metrics snapshot with :meth:`~repro.obs.metrics.MetricsRegistry.merge`,
and maintains ``parallel.pool.*`` gauges and counters (chunk-queue
depth, per-worker chunk counts, warmup seconds).

Concurrency discipline: the pool forks at first use and **never under a
lock** — :func:`repro.analysis.sanitizer.check_blocking` markers guard
the spawn and every blocking wait, and lint rule DYG404 knows
``WorkerPool(...)`` / ``shared_pool(...)`` are process spawns.
"""

from __future__ import annotations

import atexit
import logging
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.analysis import sanitizer as _sanitize
from repro.experiments import runner as _runner
from repro.experiments.spec import ExperimentSpec
from repro.obs import runtime as _obs
from repro.obs import trace as _trace

__all__ = [
    "WorkerPool",
    "WorkerPoolError",
    "execute",
    "resolve_workers",
    "shared_pool",
    "shutdown_shared_pool",
]

_log = logging.getLogger("repro.experiments.parallel")

#: Oversubscription: chunks per worker slot, so idle workers can stream
#: ahead instead of waiting on one pre-assigned slice.
STREAM_FACTOR = 4


def resolve_workers(workers: "int | None" = None) -> int:
    """Resolve the effective worker count: ``None``, ``0`` and ``1`` mean serial.

    Raises:
        ValueError: for a negative or non-integer count.
    """
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 0:
        raise ValueError(f"workers must be a non-negative int, got {workers!r}")
    return max(1, workers)


class WorkerPoolError(RuntimeError):
    """A worker process died mid-chunk (the pool was abandoned and will respawn)."""


def _worker_init() -> None:
    """Per-worker-process setup (runs once, at fork).

    Forked children inherit the parent's observability state — including
    an open journal file descriptor — and its metrics counts.  Detach the
    wiring (without closing the parent's sinks), drop the inherited
    counts, and re-enable metrics-only collection so each worker's
    snapshots report exactly its own chunks' work.
    """
    _obs.detach()
    _obs.metrics_registry().reset()
    _obs.enable_metrics()


def _warmup_worker() -> int:
    """Warmup no-op: forces the process to exist and reports its pid."""
    return os.getpid()


def _run_units_chunk(
    payload: "tuple[tuple[ExperimentSpec, ...], tuple[tuple[int, int], ...], bool]",
) -> "tuple[int, list[tuple[int, _runner._RunsData]], dict]":
    """Execute one contiguous chunk of (spec index, run index) units.

    Consecutive units of the same spec are executed as one stacked
    :func:`~repro.experiments.runner._execute_runs` call, which draws
    those runs' initial skills here in the worker, so a chunk covering a
    whole grid point still vectorizes across its runs.  Returns the
    worker pid, the per-spec accumulators in unit order, and the
    worker's metrics snapshot for this chunk (the registry is reset on
    entry — a warm worker survives many chunks).
    """
    specs, units, keep_results = payload
    _obs.metrics_registry().reset()
    results: list[tuple[int, _runner._RunsData]] = []
    start = 0
    while start < len(units):
        spec_index = units[start][0]
        stop = start
        while stop < len(units) and units[stop][0] == spec_index:
            stop += 1
        run_indices = [run for _, run in units[start:stop]]
        results.append(
            (
                spec_index,
                _runner._execute_runs(
                    specs[spec_index], run_indices, keep_results=keep_results
                ),
            )
        )
        start = stop
    return os.getpid(), results, _obs.metrics_registry().snapshot()


class WorkerPool:
    """A persistent warm pool of forked worker processes.

    The processes fork once, at first use (:meth:`ensure`), and stay
    resident until :meth:`close` — so every sweep after the first runs
    against already-warm workers instead of paying spawn + import cost
    per call.  Chunks are *streamed*: :meth:`map_chunks` submits every
    payload up front and idle workers pull the next one as they finish,
    while the caller collects results in submission order (keeping the
    merge deterministic).

    Not thread-safe by design: the fork must never happen under a lock
    (lint rule DYG404 enforces this for callers too), so the pool takes
    none — one driving thread owns a pool.  :func:`execute` runs on the
    process-wide :func:`shared_pool`.

    Args:
        workers: worker-process count (``None`` and ``0`` mean one).
    """

    def __init__(self, workers: "int | None" = None) -> None:
        self.workers = resolve_workers(workers)
        self._executor: "ProcessPoolExecutor | None" = None
        self._chunks_served = 0
        self._worker_slots: dict[int, int] = {}

    @property
    def started(self) -> bool:
        """Whether the worker processes are currently alive."""
        return self._executor is not None

    @property
    def chunks_served(self) -> int:
        """Chunks completed by the current worker generation."""
        return self._chunks_served

    def ensure(self) -> ProcessPoolExecutor:
        """Fork and warm the workers if needed; returns the live executor.

        The spawn is a blocking operation and must never run under a
        sanitized lock — the ``check_blocking`` marker reports exactly
        that under ``REPRO_SANITIZE=1``.  Warmup (fork + a no-op task per
        worker slot) is timed into ``parallel.pool.warmup_seconds`` and
        journaled as ``pool_start``.
        """
        if self._executor is not None:
            return self._executor
        _sanitize.check_blocking("pool.spawn(warmup)")
        started = time.perf_counter()
        executor = ProcessPoolExecutor(max_workers=self.workers, initializer=_worker_init)
        # One no-op per worker slot forces every process to fork now (the
        # stdlib pool spawns lazily, one process per pending submission),
        # so chunk timings never include spawn cost.
        futures = [executor.submit(_warmup_worker) for _ in range(self.workers)]
        pids = sorted({future.result() for future in futures})
        elapsed = time.perf_counter() - started
        self._executor = executor
        self._chunks_served = 0
        self._worker_slots = {pid: slot for slot, pid in enumerate(pids)}
        # Resolved at use, not cached at construction: the bench harness
        # resets the registry between rows, and a warm pool outlives rows.
        _obs.metrics_registry().timer("parallel.pool.warmup_seconds").observe(elapsed)
        obs = _obs.state()
        if obs is not None and obs.journal is not None:
            obs.journal.emit(
                "pool_start",
                workers=self.workers,
                processes=len(pids),
                warmup_seconds=round(elapsed, 9),
                utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            )
        _log.info(
            "worker pool warm: workers=%d processes=%d warmup=%.3fs",
            self.workers, len(pids), elapsed,
        )
        return self._executor

    def _slot_for(self, pid: int) -> int:
        """The stable slot index of a worker pid (late pids get new slots)."""
        if pid not in self._worker_slots:
            self._worker_slots[pid] = len(self._worker_slots)
        return self._worker_slots[pid]

    def map_chunks(
        self, fn: "Callable[[Any], Any]", payloads: "Sequence[Any]"
    ) -> "Iterator[Any]":
        """Stream ``payloads`` through the warm workers; yield in order.

        Every payload is submitted up front (idle workers pull the next
        chunk the moment they finish one) and results are yielded in
        submission order, so a chunk-ordered merge stays deterministic.
        The ``parallel.pool.queue_depth`` gauge tracks chunks submitted
        but not yet collected.

        Raises:
            WorkerPoolError: a worker process died, mid-chunk or while
                the pool sat idle between calls; the pool is abandoned
                (the next use forks a fresh one) and no result is lost
                silently.
        """
        executor = self.ensure()
        queue_gauge = _obs.metrics_registry().gauge("parallel.pool.queue_depth")
        futures: "list[Future]" = []
        collected = 0
        try:
            # A worker that died while the pool sat idle has already broken
            # the executor, so submit raises too: it must run in here.
            futures = [executor.submit(fn, payload) for payload in payloads]
            queue_gauge.inc(len(futures))
            for future in futures:
                _sanitize.check_blocking("pool.result(chunk)")
                result = future.result()
                collected += 1
                queue_gauge.dec()
                self._chunks_served += 1
                yield result
        except BaseException as error:
            queue_gauge.dec(len(futures) - collected)
            self._abandon()
            if isinstance(error, BrokenProcessPool):
                raise WorkerPoolError(
                    f"a worker process died before chunk {collected} was collected; "
                    f"the pool was abandoned and will respawn on next use"
                ) from error
            raise

    def account_chunk(self, pid: int) -> None:
        """Count one completed chunk against the worker that ran it."""
        obs = _obs.state()
        if obs is not None:
            slot = self._slot_for(pid)
            obs.metrics.counter(f"parallel.pool.worker_chunks.w{slot}").inc()

    def _abandon(self) -> None:
        """Tear down a (possibly broken) executor without journal ceremony."""
        executor, self._executor = self._executor, None
        self._worker_slots = {}
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        if _shared_pool is self:
            _clear_shared_pool()

    def close(self) -> None:
        """Stop the worker processes (idempotent; the pool can be re-ensured)."""
        if self._executor is None:
            return
        executor, self._executor = self._executor, None
        self._worker_slots = {}
        _sanitize.check_blocking("pool.shutdown(close)")
        executor.shutdown(wait=True)
        obs = _obs.state()
        if obs is not None and obs.journal is not None and not obs.journal.closed:
            obs.journal.emit("pool_stop", workers=self.workers, chunks=self._chunks_served)
        _log.info("worker pool closed: workers=%d chunks=%d", self.workers, self._chunks_served)

    def __repr__(self) -> str:
        state = "warm" if self.started else "cold"
        return f"WorkerPool(workers={self.workers}, {state})"


#: The process-wide warm pool every pooled :func:`execute` call reuses.
_shared_pool: "WorkerPool | None" = None


def _clear_shared_pool() -> None:
    global _shared_pool
    _shared_pool = None


def shared_pool(workers: "int | None" = None) -> WorkerPool:
    """The process-wide warm pool, (re)built to match ``workers``.

    A pool sized differently from the request is closed and replaced —
    the worker count is a per-sweep decision, not a per-pool one.
    """
    global _shared_pool
    count = resolve_workers(workers)
    pool = _shared_pool
    if pool is not None and pool.workers != count:
        pool.close()
        pool = None
    if pool is None:
        pool = WorkerPool(count)
        _shared_pool = pool
    return pool


def shutdown_shared_pool() -> None:
    """Close the process-wide warm pool, if one exists (idempotent)."""
    global _shared_pool
    pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.close()


atexit.register(shutdown_shared_pool)


def execute(
    specs: Sequence[ExperimentSpec],
    *,
    workers: int,
    keep_results: bool = False,
) -> "list[_runner._RunsData]":
    """Run every (spec, run) unit of ``specs``; one accumulator per spec.

    With ``workers <= 1`` or a single unit, each spec's runs execute
    in-process as one stacked
    :func:`~repro.experiments.runner._execute_runs` call.  Otherwise the
    units, ordered (spec index, run index), are split into contiguous
    chunks — :data:`STREAM_FACTOR` per worker slot, at most one per unit
    — streamed over a warm pool of ``min(workers, units)`` to ``workers``
    processes, else over a new ``shared_pool(min(workers, units))``, and
    merged in submission order, reproducing the serial lists exactly.
    """
    units = [(si, ri) for si, spec in enumerate(specs) for ri in range(spec.runs)]
    if workers <= 1 or len(units) <= 1:
        return [
            _runner._execute_runs(spec, range(spec.runs), keep_results=keep_results)
            for spec in specs
        ]
    pool = _shared_pool
    if pool is None or not min(workers, len(units)) <= pool.workers <= workers:
        pool = shared_pool(min(workers, len(units)))
    chunk_count = min(len(units), workers * STREAM_FACTOR)
    bounds = np.array_split(np.arange(len(units)), chunk_count)
    chunks = [tuple(units[int(b[0]) : int(b[-1]) + 1]) for b in bounds if b.size]
    obs = _obs.state()
    journal = obs.journal if obs is not None else None
    if journal is not None:
        journal.emit(
            "parallel_start",
            workers=pool.workers,
            chunks=len(chunks),
            units=len(units),
            utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
    _log.info(
        "parallel execute: specs=%d units=%d workers=%d chunks=%d",
        len(specs), len(units), pool.workers, len(chunks),
    )
    merged = [_runner._RunsData.empty(spec.algorithms) for spec in specs]
    started = time.perf_counter()
    payloads = [(tuple(specs), chunk, keep_results) for chunk in chunks]
    with _trace.span("experiments.parallel", workers=pool.workers, chunks=len(chunks)):
        for index, (pid, chunk_results, snapshot) in enumerate(
            pool.map_chunks(_run_units_chunk, payloads)
        ):
            for spec_index, data in chunk_results:
                merged[spec_index].extend(data)
            if obs is not None:
                obs.metrics.merge(snapshot)
            pool.account_chunk(pid)
            if journal is not None:
                journal.emit("parallel_chunk", index=index, units=len(chunks[index]))
    if journal is not None:
        journal.emit(
            "parallel_end",
            chunks=len(chunks),
            seconds=round(time.perf_counter() - started, 9),
        )
    if obs is not None:
        obs.metrics.counter("experiments.parallel.chunks").inc(len(chunks))
    return merged
