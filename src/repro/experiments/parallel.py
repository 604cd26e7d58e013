"""Process-parallel executor: warm worker pool, streamed chunks, shared memory.

Every run of a spec derives all of its randomness from ``spec.seed + i``
and nothing else, and the stacked-trial kernels of
:mod:`repro.core.vectorized` are row-independent — so the full work list
of a sweep, the cross product of (grid point × run), can be chunked over
worker processes in any way and merged back into **bit-identical**
outcomes.  This module owns that fan-out:

* :func:`resolve_workers` — the ``workers`` knob (argument → spec field →
  ``REPRO_WORKERS`` environment variable → serial);
* :class:`WorkerPool` — a **persistent warm pool**: the worker processes
  fork once (at first use, timed into ``parallel.pool.warmup_seconds``)
  and stay resident across every ``run_spec_parallel`` /
  ``sweep_outcomes_parallel`` call that borrows the pool, so sweeps after
  the first pay zero spawn cost.  Usable as a context manager, or
  implicitly through the process-wide shared pool (:func:`shared_pool`),
  which every call that is not handed a pool borrows;
* :func:`run_spec_parallel` / :func:`sweep_outcomes_parallel` — the
  parallel twins of :func:`repro.experiments.runner.run_spec` and
  :func:`repro.experiments.sweep.sweep_outcomes`.  Callers normally reach
  them implicitly through ``workers=N`` on the serial entry points.

Work is **streamed**, not pre-split: the unit list is cut into
``workers × STREAM_FACTOR`` contiguous chunks that idle workers pull as
they finish, so an unlucky slow chunk no longer serializes the whole
sweep behind one worker.

Skill arrays travel through **shared memory**, not pickles: the parent
draws every run's initial skills (the identical
:func:`~repro.experiments.runner.draw_skills` calls the serial path
makes), stacks them per grid point into
:class:`repro.core.batch.SharedMatrix` segments, and ships only
``(name, shape)`` descriptors with each chunk; workers map the same
physical pages read-only.  Platforms without shared memory fall back
to workers re-drawing their own rows — bit-identical either way, since
both sides run the same draw.

Determinism contract: units are ordered (grid point, run index), split
into contiguous chunks, executed with the exact same per-run seeds and
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
metrics snapshot in chunk order — deterministic, unlike live
cross-process emission — and maintains ``parallel.pool.*`` gauges and
counters (chunk-queue depth, per-worker chunk counts, warmup seconds).

Concurrency discipline: the pool forks at construction/first-use and
**never under a lock** — :func:`repro.analysis.sanitizer.check_blocking`
markers guard the spawn and every blocking wait, and lint rule DYG404
knows ``WorkerPool(...)`` / ``shared_pool(...)`` are process spawns.
"""

from __future__ import annotations

import atexit
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.analysis import sanitizer as _sanitize
from repro.core.batch import SharedMatrix, shared_memory_available
from repro.experiments import runner as _runner
from repro.experiments.spec import ExperimentSpec
from repro.obs import runtime as _obs
from repro.obs import trace as _trace

__all__ = [
    "WORKERS_ENV",
    "WorkerPool",
    "WorkerPoolError",
    "resolve_workers",
    "run_spec_parallel",
    "shared_pool",
    "shutdown_shared_pool",
    "sweep_outcomes_parallel",
]

_log = logging.getLogger("repro.experiments.parallel")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: Oversubscription: chunks per worker slot, so idle workers can stream
#: ahead instead of waiting on one pre-assigned slice.
STREAM_FACTOR = 4


def resolve_workers(workers: "int | None" = None) -> int:
    """Resolve the effective worker count.

    ``None`` and ``0`` defer to the :data:`WORKERS_ENV` environment
    variable; an unset (or non-positive) variable means serial (1).

    Raises:
        ValueError: for a negative or non-integer count, or a variable
            value that is not an integer.
    """
    if workers is None:
        workers = 0
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 0:
        raise ValueError(f"workers must be a non-negative int, got {workers!r}")
    if workers == 0:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
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
    payload: "tuple[tuple[ExperimentSpec, ...], tuple[tuple[int, int], ...], bool, tuple]",
) -> "tuple[int, list[tuple[int, _runner._RunsData]], dict]":
    """Execute one contiguous chunk of (spec index, run index) units.

    Consecutive units of the same spec are executed as one stacked
    :func:`~repro.experiments.runner._execute_runs` call, so a chunk
    covering a whole grid point still vectorizes across its runs.  When
    the payload carries shared-memory descriptors, the spec's initial
    skills are sliced from the parent's segment instead of re-drawn.
    Returns the worker pid, the per-spec accumulators in unit order, and
    the worker's metrics snapshot for this chunk (the registry is reset
    on entry — a warm worker survives many chunks).
    """
    specs, units, keep_results, shm_metas = payload
    _obs.metrics_registry().reset()
    results: list[tuple[int, _runner._RunsData]] = []
    attached: "dict[int, SharedMatrix]" = {}
    try:
        start = 0
        while start < len(units):
            spec_index = units[start][0]
            stop = start
            while stop < len(units) and units[stop][0] == spec_index:
                stop += 1
            run_indices = [run for _, run in units[start:stop]]
            skills_matrix = None
            if shm_metas[spec_index] is not None:
                if spec_index not in attached:
                    attached[spec_index] = SharedMatrix.attach(shm_metas[spec_index])
                skills_matrix = attached[spec_index].array()[run_indices]
            results.append(
                (
                    spec_index,
                    _runner._execute_runs(
                        specs[spec_index],
                        run_indices,
                        keep_results=keep_results,
                        skills_matrix=skills_matrix,
                    ),
                )
            )
            start = stop
    finally:
        for handle in attached.values():
            handle.close()
    return os.getpid(), results, _obs.metrics_registry().snapshot()


def _merge_metrics_snapshot(snapshot: dict) -> None:
    """Fold one worker chunk's metrics snapshot into the parent registry.

    Called in chunk order (never concurrently), so merged counts and
    retained timer series are deterministic given the chunking.
    """
    obs = _obs.state()
    if obs is None:
        return
    registry = obs.metrics
    for name, payload in snapshot.get("counters", {}).items():
        registry.counter(name).inc(payload["value"])
    for name, payload in snapshot.get("gauges", {}).items():
        # A gauge is a point-in-time level, not a cumulative count:
        # merging worker snapshots keeps the highest level any worker
        # reached (the parent's own gauge value participates too).
        gauge = registry.gauge(name)
        gauge.set(max(gauge.value, payload["value"]))
    for name, payload in snapshot.get("timers", {}).items():
        timer = registry.timer(name)
        for value in payload["values"]:
            timer.observe(value)
    for name, payload in snapshot.get("histograms", {}).items():
        histogram = registry.histogram(name)
        for value in payload["values"]:
            histogram.observe(value)


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
    none — one driving thread owns a pool.  Calls that are not handed a
    pool borrow the process-wide :func:`shared_pool`.

    Args:
        workers: worker-process count (``None``/0 defer to
            :data:`WORKERS_ENV`).
        use_shared_memory: ship skill matrices via
            :class:`~repro.core.batch.SharedMatrix` descriptors instead
            of letting workers re-draw them.  ``None`` probes the
            platform; ``False`` runs the re-draw fallback (tests use it
            to cover platforms without shared memory).
    """

    def __init__(
        self,
        workers: "int | None" = None,
        *,
        use_shared_memory: "bool | None" = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        wanted = True if use_shared_memory is None else bool(use_shared_memory)
        self.use_shared_memory = wanted and shared_memory_available()
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
                shared_memory=self.use_shared_memory,
                utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            )
        _log.info(
            "worker pool warm: workers=%d processes=%d warmup=%.3fs shm=%s",
            self.workers, len(pids), elapsed, self.use_shared_memory,
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
            WorkerPoolError: a worker process died; the pool is abandoned
                (the next use forks a fresh one) and no result is lost
                silently.
        """
        executor = self.ensure()
        queue_gauge = _obs.metrics_registry().gauge("parallel.pool.queue_depth")
        futures = [executor.submit(fn, payload) for payload in payloads]
        queue_gauge.inc(len(futures))
        collected = 0
        try:
            for future in futures:
                _sanitize.check_blocking("pool.result(chunk)")
                try:
                    result = future.result()
                except BrokenProcessPool as error:
                    raise WorkerPoolError(
                        f"a worker process died executing chunk {collected}; "
                        f"the pool was abandoned and will respawn on next use"
                    ) from error
                collected += 1
                queue_gauge.dec()
                self._chunks_served += 1
                yield result
        except BaseException:
            queue_gauge.dec(len(futures) - collected)
            self._abandon()
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

    def __enter__(self) -> "WorkerPool":
        self.ensure()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "warm" if self.started else "cold"
        return f"WorkerPool(workers={self.workers}, {state}, shm={self.use_shared_memory})"


#: The process-wide warm pool every call without a pool of its own reuses.
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


def _parallel_execute(
    specs: Sequence[ExperimentSpec],
    *,
    workers: int,
    keep_results: bool = False,
    pool: "WorkerPool | None" = None,
) -> "list[_runner._RunsData]":
    """Fan the (spec × run) work list out over warm worker processes.

    Units are ordered (spec index, run index) and split into contiguous
    chunks — :data:`STREAM_FACTOR` per worker slot, at most one per unit
    — streamed to idle workers, then merged in submission order,
    reproducing the serial accumulator lists exactly.

    An explicit ``pool`` is borrowed (and left warm); otherwise the
    process-wide :func:`shared_pool` is.
    """
    if pool is None:
        pool = shared_pool(workers)
    elif pool.workers != workers:
        raise ValueError(
            f"borrowed pool has {pool.workers} workers but {workers} were requested"
        )
    units = [(si, ri) for si, spec in enumerate(specs) for ri in range(spec.runs)]
    chunk_count = min(len(units), workers * STREAM_FACTOR)
    bounds = np.array_split(np.arange(len(units)), chunk_count)
    chunks = [tuple(units[int(b[0]) : int(b[-1]) + 1]) for b in bounds if b.size]
    obs = _obs.state()
    journal = obs.journal if obs is not None else None
    if journal is not None:
        journal.emit(
            "parallel_start",
            workers=workers,
            chunks=len(chunks),
            units=len(units),
            shared_memory=pool.use_shared_memory,
            utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
    _log.info(
        "parallel execute: specs=%d units=%d workers=%d chunks=%d shm=%s",
        len(specs), len(units), workers, len(chunks), pool.use_shared_memory,
    )
    merged = [_runner._RunsData.empty(spec.algorithms) for spec in specs]
    started = time.perf_counter()
    # The parent draws every run's initial skills — the identical
    # draw_skills calls serial execution makes — and shares them once per
    # grid point; chunks then carry (name, shape) descriptors instead of
    # pickled arrays.  Any spec whose segment cannot be created falls
    # back to workers re-drawing (same bits either way).
    shared: "list[SharedMatrix | None]" = [None] * len(specs)
    if pool.use_shared_memory:
        for index, spec in enumerate(specs):
            try:
                shared[index] = SharedMatrix.create(
                    np.stack([_runner.draw_skills(spec, i) for i in range(spec.runs)])
                )
            except Exception:  # pragma: no cover - platform-dependent
                shared[index] = None
    shm_metas = tuple(handle.meta if handle is not None else None for handle in shared)
    try:
        payloads = [(tuple(specs), chunk, keep_results, shm_metas) for chunk in chunks]
        with _trace.span("experiments.parallel", workers=workers, chunks=len(chunks)):
            for index, (pid, chunk_results, snapshot) in enumerate(
                pool.map_chunks(_run_units_chunk, payloads)
            ):
                for spec_index, data in chunk_results:
                    merged[spec_index].extend(data)
                _merge_metrics_snapshot(snapshot)
                pool.account_chunk(pid)
                if journal is not None:
                    journal.emit("parallel_chunk", index=index, units=len(chunks[index]))
    finally:
        for handle in shared:
            if handle is not None:
                handle.close()
                handle.unlink()
    if journal is not None:
        journal.emit(
            "parallel_end",
            chunks=len(chunks),
            seconds=round(time.perf_counter() - started, 9),
        )
    if obs is not None:
        obs.metrics.counter("experiments.parallel.chunks").inc(len(chunks))
    return merged


def run_spec_parallel(
    spec: ExperimentSpec,
    *,
    keep_results: bool = False,
    workers: "int | None" = None,
    pool: "WorkerPool | None" = None,
) -> "_runner.SpecOutcome | tuple":
    """Parallel :func:`~repro.experiments.runner.run_spec`.

    Chunks the spec's runs over warm worker processes; per-run seeds are
    unchanged (``spec.seed + i``), so the outcome's gain fields are
    bit-identical to serial execution.  Timing fields measure the real
    (concurrent) work and will differ.  An explicit ``pool`` is borrowed
    and left warm for the next call.
    """
    count = resolve_workers(workers if workers is not None else spec.workers)
    if count <= 1 or spec.runs <= 1:
        serial = spec.with_(workers=1)
        return _runner.run_spec(serial, keep_results=keep_results)
    _log.info(
        "run_spec_parallel: n=%d runs=%d workers=%d engine=%s",
        spec.n, spec.runs, count, spec.engine,
    )
    _runner._emit_spec_start(spec)
    data = _parallel_execute([spec], workers=count, keep_results=keep_results, pool=pool)[0]
    outcomes = _runner._assemble_outcomes(spec, data)
    _runner._emit_spec_end(outcomes)
    outcome = _runner.SpecOutcome(spec=spec, outcomes=outcomes)
    if keep_results:
        return outcome, data.raw
    return outcome


def sweep_outcomes_parallel(
    spec: ExperimentSpec,
    parameter: str,
    values: Sequence[float],
    *,
    workers: "int | None" = None,
    pool: "WorkerPool | None" = None,
) -> "list[_runner.SpecOutcome]":
    """Parallel :func:`~repro.experiments.sweep.sweep_outcomes`.

    Streams the full (grid point × run) cross product over warm worker
    processes and reassembles per-point outcomes in grid order; gain
    fields are bit-identical to the serial sweep.  An explicit ``pool``
    is borrowed and left warm for the next call.

    Raises:
        ValueError: for an unsweepable parameter or an empty grid.
    """
    from repro.experiments.sweep import SWEEPABLE, _cast_value

    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
    if not values:
        raise ValueError("values must be non-empty")
    count = resolve_workers(workers if workers is not None else spec.workers)
    point_specs = [spec.with_(**{parameter: _cast_value(parameter, v)}) for v in values]
    if count <= 1:
        from repro.experiments.sweep import sweep_outcomes

        return sweep_outcomes(spec.with_(workers=1), parameter, values)
    _log.info(
        "sweep_outcomes_parallel: parameter=%s points=%d workers=%d",
        parameter, len(point_specs), count,
    )
    merged = _parallel_execute(point_specs, workers=count, pool=pool)
    obs = _obs.state()
    journal = obs.journal if obs is not None else None
    outcomes: list[_runner.SpecOutcome] = []
    for point_spec, data in zip(point_specs, merged):
        if journal is not None:
            journal.emit(
                "sweep_point",
                parameter=parameter,
                value=getattr(point_spec, parameter),
            )
        _runner._emit_spec_start(point_spec)
        point_outcomes = _runner._assemble_outcomes(point_spec, data)
        _runner._emit_spec_end(point_outcomes)
        outcomes.append(_runner.SpecOutcome(spec=point_spec, outcomes=point_outcomes))
    return outcomes
