"""Round-step executor: adaptive step waves with bounded queues and backpressure.

The deterministic DyGroups groupers are pure functions of ``(skills, k,
mode)`` — no generator state — so round steps of same-configuration
cohorts can be stacked: a worker drains up to ``batch_max`` queued
steps, groups them by ``(n, k, mode, rate)``, and proposes for each
group with one vectorized :func:`repro.core.batch.propose_batch` call
(a single ``(m, n)`` argsort instead of ``m`` Python round trips), or
straight from the :class:`~repro.serve.cache.GroupingCache` for arrays
already memoized.

Steps batch **adaptively**: :meth:`BatchScheduler.step_rounds`
enqueues a whole multi-round propose → update → gain sequence as ONE
request only when at least
``batch_min`` same-``(n, k, mode, rate)`` steps are in flight (so a
worker has something to stack it with) AND more than one hardware
thread backs the workers (``parallelism``); otherwise it falls through
to the inline kernel path — the exact ``session.advance_round`` call a
worker-less service makes — and skips the enqueue → drain → future
round trip entirely.  Multi-round requests amortize that round trip
over every round of an ``advance_rounds`` call, and a drained wave
keeps its cohorts stacked together for all of them.  The same decision
repeats at drain time: a config group that drained as a single request
is answered inline rather than through a wave of one.  Both outcomes
are bit-identical (that is the whole design), so the racy backlog probe
is safe: it only ever picks between two equal-output paths.  When a
wave does form, the worker advances every same-configuration cohort it
drained with one batched proposal plus one stacked skill update
(:func:`repro.engine.stacked.apply_update_many` — the vectorized
engine's kernel, bit-identical to the scalar round step).  Cohorts are
advanced in *waves* of distinct sessions, locks taken in session-id
order, so concurrent advances of one cohort stay sequential and
deadlock-free.

Backpressure is explicit: the request queue is bounded and
:meth:`BatchScheduler.submit_step` *rejects* work with
:class:`~repro.serve.errors.SchedulerSaturated` (the HTTP layer's 429)
instead of queueing unboundedly.  Shutdown is graceful — workers drain
the queue's sentinel and every in-flight future resolves.

Metrics (``serve.scheduler.*`` in the :mod:`repro.obs.metrics`
registry): step waves executed, wave-size histogram, rejections, a
``queue_depth`` gauge (live backlog + high-water mark), an
``inflight_waves`` gauge, ``step_inline_fallthrough`` (round steps
answered via the inline kernel because no same-configuration backlog
existed — at submit or at drain), and the per-stage latency
decomposition the scenario harness reports — ``wait_seconds`` (enqueue
→ dequeue), ``batch_assembly_seconds`` (dequeue → compute start), and
``kernel_seconds`` (the vectorized compute itself).  All request-path
series are retention-bounded by
:data:`repro.serve.config.REQUEST_HISTOGRAM_KEEP`.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis import contracts as _contracts
from repro.analysis import sanitizer as _sanitize
from repro.core.batch import BATCH_MODES, propose_batch
from repro.core.grouping import Grouping
from repro.engine.stacked import apply_update_many, grouping_to_members
from repro.obs import runtime as _obs
from repro.serve.cache import GroupingCache
from repro.serve.config import REQUEST_HISTOGRAM_KEEP
from repro.serve.errors import RequestTimeout, SchedulerSaturated, ServiceClosed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.sessions import CohortSession

__all__ = ["BatchScheduler"]

#: Queue sentinel that tells one worker to exit.
_STOP = object()


class _StepRequest:
    """One queued round-step request: ``rounds`` sequential rounds of one cohort.

    Multi-round requests are the handoff amortizer: a client advancing a
    cohort by R rounds pays one enqueue → drain → future round trip for
    the whole sequence instead of R of them, and the drained wave keeps
    the cohorts stacked together for all R rounds.  The future resolves
    to the list of round records, in play order.
    """

    __slots__ = ("session", "rounds", "future", "enqueued")

    def __init__(self, session: "CohortSession", rounds: int, enqueued: float) -> None:
        self.session = session
        self.rounds = rounds
        self.future: "Future[list[dict[str, Any]]]" = Future()
        self.enqueued = enqueued


class BatchScheduler:
    """Stacks concurrent same-configuration round steps into vectorized waves.

    Args:
        cache: grouping memo consulted before (and filled after) every
            proposal; ``None`` disables memoization.
        workers: worker-thread count (must be positive — a service that
            wants inline computation simply doesn't build a scheduler).
        queue_depth: request-queue bound; submissions beyond it raise
            :class:`~repro.serve.errors.SchedulerSaturated`.
        batch_max: most requests coalesced into one drain.
        batch_min: smallest same-configuration backlog worth stacking.
            Below it a wave's fixed costs — the queue round trip, the
            stack/unstack, waking the waiters — outweigh the
            vectorization win, so smaller backlogs fall through to the
            inline kernel at submit AND at drain time.
        parallelism: hardware threads assumed to back the workers;
            defaults to ``os.cpu_count()``.  Step waves form only when
            ``min(workers, parallelism) > 1`` — on a single core the
            wave's serial handoff costs always lose to the inline
            kernel, so every step is answered inline there.  Tests pin
            this to exercise wave formation deterministically regardless
            of host.
    """

    def __init__(
        self,
        cache: "GroupingCache | None" = None,
        *,
        workers: int = 2,
        queue_depth: int = 256,
        batch_max: int = 32,
        batch_min: int = 4,
        parallelism: "int | None" = None,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers <= 0:
            raise ValueError(f"workers must be a positive int, got {workers!r}")
        if not isinstance(queue_depth, int) or isinstance(queue_depth, bool) or queue_depth <= 0:
            raise ValueError(f"queue_depth must be a positive int, got {queue_depth!r}")
        if not isinstance(batch_max, int) or isinstance(batch_max, bool) or batch_max <= 0:
            raise ValueError(f"batch_max must be a positive int, got {batch_max!r}")
        if not isinstance(batch_min, int) or isinstance(batch_min, bool) or batch_min < 2:
            raise ValueError(f"batch_min must be an int >= 2, got {batch_min!r}")
        if parallelism is not None and (
            not isinstance(parallelism, int) or isinstance(parallelism, bool) or parallelism < 1
        ):
            raise ValueError(f"parallelism must be a positive int or None, got {parallelism!r}")
        self.cache = cache
        self.parallelism = parallelism if parallelism is not None else (os.cpu_count() or 1)
        # A step wave only pays when workers genuinely overlap: its fixed
        # costs (queue round trip, future wakeups) are serial, and on a
        # single hardware thread they double the per-round price instead
        # of hiding behind parallel compute, so waves form only when
        # more than one core backs the workers.
        self._wave_parallel = min(workers, self.parallelism) > 1
        self.batch_max = batch_max
        self.batch_min = batch_min
        self.queue_depth = queue_depth
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_depth)
        self._closed = False
        self._lock = _sanitize.lock("serve.scheduler.close")
        # Same-configuration step calls currently in flight (submitted but
        # not yet answered), keyed by (n, k, mode, rate) — the backlog
        # probe.  The lock guards only these counters and is never
        # held across compute or another acquisition.
        self._step_inflight: "dict[tuple[int, int, str, float], int]" = {}
        self._backlog_lock = _sanitize.lock("serve.scheduler.backlog")
        registry = _obs.metrics_registry()
        self._step_batches = registry.counter("serve.scheduler.step_batches")
        self._step_batch_size = registry.histogram(
            "serve.scheduler.step_batch_size", keep=REQUEST_HISTOGRAM_KEEP
        )
        self._rejections = registry.counter("serve.scheduler.rejections")
        self._inline_fallthrough = registry.counter("serve.scheduler.step_inline_fallthrough")
        self._wait_seconds = registry.timer(
            "serve.scheduler.wait_seconds", keep=REQUEST_HISTOGRAM_KEEP
        )
        self._assembly_seconds = registry.timer(
            "serve.scheduler.batch_assembly_seconds", keep=REQUEST_HISTOGRAM_KEEP
        )
        self._kernel_seconds = registry.timer(
            "serve.scheduler.kernel_seconds", keep=REQUEST_HISTOGRAM_KEEP
        )
        self._queue_gauge = registry.gauge("serve.scheduler.queue_depth")
        self._inflight_waves = registry.gauge("serve.scheduler.inflight_waves")
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"dygroups-serve-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def submit_step(
        self, session: "CohortSession", rounds: int = 1
    ) -> "Future[list[dict[str, Any]]]":
        """Enqueue ``rounds`` sequential round steps for ``session``.

        The future resolves to the list of round records
        (``{"round": t, "gain": g, "groups": ...}``) once a worker has
        advanced the cohort — possibly together with other queued
        same-configuration cohorts, stacked for the whole multi-round
        sequence.

        Raises:
            ServiceClosed: after :meth:`close`.
            SchedulerSaturated: when the bounded queue is full.
            ValueError: for a session whose mode/gain has no batched
                update (the service routes only DyGroups cohorts here),
                or a non-positive round count.
        """
        self._validate_step(session)
        if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds <= 0:
            raise ValueError(f"rounds must be a positive int, got {rounds!r}")
        request = _StepRequest(session, rounds, time.perf_counter())
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._rejections.inc()
            raise SchedulerSaturated(
                f"round-step queue is full ({self.queue_depth} requests queued); retry later"
            ) from None
        self._queue_gauge.inc()
        return request.future

    def _validate_step(self, session: "CohortSession") -> None:
        """Shared admission checks for queued and inline round steps."""
        if self._closed:
            raise ServiceClosed("scheduler is shut down")
        if session.mode.name not in BATCH_MODES:
            raise ValueError(
                f"mode {session.mode.name!r} is not batchable; expected one of {BATCH_MODES}"
            )
        if session.mode.name == "clique" and not session.gain_fn.is_linear:
            raise ValueError("batched clique round steps require a linear gain function")

    @staticmethod
    def _step_key(session: "CohortSession") -> "tuple[int, int, str, float]":
        """The batching configuration: only same-key steps can share a wave."""
        return (session.n, session.k, session.mode.name, session.rate)

    def step(self, session: "CohortSession", *, timeout: "float | None" = None) -> dict[str, Any]:
        """Blocking single round step (see :meth:`step_rounds`)."""
        return self.step_rounds(session, 1, timeout=timeout)[0]

    def step_rounds(
        self, session: "CohortSession", rounds: int, *, timeout: "float | None" = None
    ) -> "list[dict[str, Any]]":
        """Blocking multi-round step: batch when a backlog exists, inline otherwise.

        Probes the in-flight count of this session's ``(n, k, mode,
        rate)`` configuration: with at least ``batch_min``
        same-key requests in flight (this one included) the request
        enqueues as ONE multi-round unit (a worker will stack the
        cohorts and keep them stacked for every round); below the
        threshold it falls through to the inline kernel on the calling
        thread — no queue, no future, no undersized wave.  The probe is
        racy by construction and deliberately so: both paths produce
        bit-identical records, so a mis-predicted branch costs only the
        batching opportunity, never correctness.

        Raises:
            RequestTimeout: the future did not resolve within ``timeout``.
            (plus everything :meth:`submit_step` raises)
        """
        if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds <= 0:
            raise ValueError(f"rounds must be a positive int, got {rounds!r}")
        self._validate_step(session)
        key = self._step_key(session)
        with self._backlog_lock:
            count = self._step_inflight.get(key, 0) + 1
            self._step_inflight[key] = count
        try:
            if self._wave_parallel and count >= self.batch_min:
                return self._step_queued(session, rounds, timeout)
            self._inline_fallthrough.inc(rounds)
            return self._step_inline_rounds(session, rounds)
        finally:
            with self._backlog_lock:
                remaining = self._step_inflight[key] - 1
                if remaining:
                    self._step_inflight[key] = remaining
                else:
                    del self._step_inflight[key]

    def _step_queued(
        self, session: "CohortSession", rounds: int, timeout: "float | None"
    ) -> "list[dict[str, Any]]":
        """Enqueue a multi-round step and wait for a worker to answer it."""
        future = self.submit_step(session, rounds)
        _sanitize.check_blocking("future.result(step)")
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            raise RequestTimeout(
                f"round-step request did not complete within {timeout:g}s"
            ) from None

    def _step_inline(self, session: "CohortSession") -> dict[str, Any]:
        """One round through the inline kernel (see :meth:`_step_inline_rounds`)."""
        return self._step_inline_rounds(session, 1)[0]

    def _step_inline_rounds(
        self, session: "CohortSession", rounds: int
    ) -> "list[dict[str, Any]]":
        """The inline kernel path: exactly what a worker-less service runs.

        ``advance_round`` takes the session lock and drives the session's
        :class:`~repro.engine.kernel.RoundKernel`; the propose override
        is the grouping-memo fast path (with the same Theorem-1 contract
        check the service's inline route applies), so the records are
        bit-identical to the batched wave's.  The closure and the kernel
        timer are built once for the whole multi-round sequence — this
        path answers most round steps on single-core hosts, so its
        per-round overhead matters.
        """
        propose = None
        if self.cache is not None:
            cache, mode = self.cache, session.mode.name

            def propose(skills: np.ndarray, k: int, rng: object) -> Grouping:
                grouping = cache.propose(skills, k, mode)
                if _contracts.contracts_enabled():
                    _contracts.check_top_k_teachers(skills, grouping)
                return grouping

        # Inline steps are kernel compute too: keep the stage series
        # complete whichever way the batching decision went.
        with self._kernel_seconds.time():
            return [session.advance_round(propose) for _ in range(rounds)]

    def close(self, *, timeout: float = 5.0) -> None:
        """Stop accepting work, drain the queue, and join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(_STOP)
        _sanitize.check_blocking("worker.join(shutdown)")
        for worker in self._workers:
            worker.join(timeout=timeout)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- worker side -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            _sanitize.check_blocking("queue.get(worker)")
            item = self._queue.get()
            if item is _STOP:
                return
            drained = time.perf_counter()
            self._queue_gauge.dec()
            batch: "list[_StepRequest]" = [item]
            while len(batch) < self.batch_max:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    # Another worker's shutdown sentinel — hand it back.
                    self._queue.put(extra)
                    break
                self._queue_gauge.dec()
                batch.append(extra)
            now = time.perf_counter()
            for request in batch:
                self._wait_seconds.observe(now - request.enqueued)
            self._assembly_seconds.observe(now - drained)
            # Kernel timing happens per wave / per inline step inside
            # _execute_steps, so the series decomposes by decision.
            self._execute_steps(batch)

    def _execute_steps(self, batch: "list[_StepRequest]") -> None:
        """Advance a drained batch of cohorts, batching compatible rounds.

        Requests are grouped by ``(n, k, mode, rate)`` — the full round
        configuration — then advanced in waves of *distinct* sessions so
        that two queued advances of one cohort play sequential rounds
        (its lock is not reentrant, and round indices must not collide).

        The drain-time half of the batching decision lives here: a wave
        below ``batch_min`` cohorts has no batching win to pay for its
        stacking overhead, so it is answered through the inline kernel
        path instead — counted in ``step_inline_fallthrough``, exactly
        like a submit-time fall-through.  ``step_batches`` /
        ``step_batch_size`` describe only the waves that actually stacked.
        """
        by_config: "dict[tuple[int, int, str, float], list[_StepRequest]]" = {}
        for request in batch:
            if request.future.set_running_or_notify_cancel():
                by_config.setdefault(self._step_key(request.session), []).append(request)
        for requests in by_config.values():
            remaining = requests
            while remaining:
                wave: "list[_StepRequest]" = []
                later: "list[_StepRequest]" = []
                seen: set[int] = set()
                for request in remaining:
                    if id(request.session) in seen:
                        later.append(request)
                    else:
                        seen.add(id(request.session))
                        wave.append(request)
                if len(wave) < self.batch_min:
                    for request in wave:
                        self._inline_fallthrough.inc(request.rounds)
                        self._execute_step_request_inline(request)
                else:
                    self._step_batches.inc()
                    self._step_batch_size.observe(len(wave))
                    with self._kernel_seconds.time():
                        self._execute_step_wave(wave)
                remaining = later

    def _execute_step_request_inline(self, request: "_StepRequest") -> None:
        """Answer one drained multi-round step through the inline kernel path."""
        try:
            records = self._step_inline_rounds(request.session, request.rounds)
        except Exception as error:
            request.future.set_exception(error)
        else:
            request.future.set_result(records)

    def _execute_step_wave(self, wave: "list[_StepRequest]") -> None:
        """Batched multi-round steps over distinct same-configuration cohorts.

        The wave stays stacked for as long as any member has rounds left:
        each iteration advances every still-active cohort by one round
        with one batched proposal plus one stacked skill update, reading
        the skills the previous iteration wrote.  Bit-identity with the
        inline path is the invariant: the proposal comes from the same
        memo/batched grouper, and the stacked update is
        :func:`repro.engine.stacked.apply_update_many` — pinned equal to
        the scalar kernel per row — with the row-wise gain reduction
        summing the same operands in the same order.
        """
        # Locks are taken in session-id order — a global order shared by
        # every wave, so two workers locking overlapping waves cannot
        # deadlock — and held across the whole multi-round compute: each
        # cohort's rounds are read, advanced, and written back with no
        # other thread interleaving.  Futures resolve only after every
        # lock is released, so woken waiters never block straight back
        # on a lock this wave still holds.
        wave = sorted(wave, key=lambda request: request.session.id)
        sessions = [request.session for request in wave]
        for session in sessions:
            session._lock.acquire()
        self._inflight_waves.inc()
        finished: "list[_StepRequest]" = []
        records: "dict[int, list[dict[str, Any]]]" = {id(r): [] for r in wave}
        error: "Exception | None" = None
        try:
            first = sessions[0]
            k, mode, gain_fn = first.k, first.mode, first.gain_fn
            checking = _contracts.contracts_enabled()
            pending: "list[tuple[_StepRequest, int]]" = [
                (request, request.rounds) for request in wave
            ]
            while pending:
                arrays = [request.session.skills for request, _ in pending]
                if self.cache is not None:
                    groupings = self.cache.propose_batch(arrays, k, mode.name)
                else:
                    groupings = propose_batch(np.stack(arrays), k, mode.name)
                if checking:
                    for skills, grouping in zip(arrays, groupings):
                        # Parity with the inline fast path, which checks
                        # Theorem 1 and the partition shape per proposal.
                        _contracts.check_top_k_teachers(skills, grouping)
                        _contracts.check_partition(grouping, n=skills.size, k=k)
                stacked = np.stack(arrays)
                members = np.stack(
                    [grouping_to_members(grouping) for grouping in groupings]
                )
                updated = apply_update_many(stacked, members, k, mode, gain_fn)
                gains = np.sum(updated - stacked, axis=1)
                if checking:
                    for row, (skills, grouping) in enumerate(zip(arrays, groupings)):
                        if mode.name == "star":
                            _contracts.check_star_teacher_unchanged(
                                skills, updated[row], grouping
                            )
                        elif mode.name == "clique":
                            _contracts.check_clique_order_preserved(
                                skills, updated[row], grouping
                            )
                    _contracts.check_gains_nonnegative(gains)
                still: "list[tuple[_StepRequest, int]]" = []
                for row, (request, remaining) in enumerate(pending):
                    record = request.session.record_round_locked(
                        groupings[row], updated[row].copy(), float(gains[row])
                    )
                    records[id(request)].append(record)
                    if remaining > 1:
                        still.append((request, remaining - 1))
                    else:
                        finished.append(request)
                pending = still
        except Exception as caught:
            error = caught
        finally:
            self._inflight_waves.dec()
            for session in sessions:
                session._lock.release()
        finished_ids = {id(request) for request in finished}
        for request in finished:
            request.future.set_result(records[id(request)])
        if error is not None:
            for request in wave:
                if id(request) not in finished_ids and not request.future.done():
                    request.future.set_exception(error)
