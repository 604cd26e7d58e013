"""The deadline-driven condenser: arrivals in, cohort sessions out.

A :class:`Matchmaker` sits in front of one
:class:`~repro.serve.service.GroupingService` and turns the individual
arrival stream of ``POST /v1/join`` into real cohort sessions:

* **fill condensation** — the moment a spec's pending pool reaches its
  target size ``n``, the joining request itself condenses the cohort
  (synchronously, under the matchmaker lock), so a full wave never
  waits on the background tick;
* **deadline condensation** — :meth:`tick` (driven by an optional
  daemon thread, or directly by tests with a fake clock) flushes waves
  whose deadline fired: the largest multiple of ``k`` within
  ``[min_fill, max_fill]`` of the pending pool condenses, leftovers
  re-arm a fresh deadline, and a wave below ``min_fill`` expires whole;
* **rank-window admission** — condensed members are the skill-rank
  window (over the spec's pool sorted by descending skill, arrival
  order breaking ties) centred on the longest-waiting participant, so
  backfill picks skill-compatible neighbours instead of an arbitrary
  prefix, and nobody is starved by later, stronger arrivals.

Determinism contract: the members of a condensed cohort are ordered by
``(-skill, arrival seq)`` and the ``i``-th cohort of a spec is created
with ``seed + i`` through the *unchanged*
:meth:`~repro.serve.service.GroupingService.create_cohort` path —
so a matched cohort's trajectory is bit-identical to ``POST
/v1/cohorts`` with the same skill multiset, and to an offline
``simulate()`` run (pinned by the matchmaking property tests).

Locking: one coarse ``matchmaking.matchmaker`` sanitizer-factory lock
serializes every compound operation (join → maybe-condense, tick,
leave); it nests over the queue's own ``matchmaking.queue`` lock and —
through ``create_cohort`` — over the serve-layer store/session locks,
one global order with no reverse path.  Status reads bypass it and take
only the queue lock.
"""

from __future__ import annotations

import logging
import math
import re
import threading
import time
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.analysis import sanitizer as _sanitize
from repro.matchmaking.queue import JoinQueue, Participant
from repro.matchmaking.spec import DEFAULT_SPEC_NAME, GroupSpec
from repro.obs import runtime as _obs
from repro.serve.errors import CapacityExhausted, InvalidRequest, ServiceClosed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service builds us)
    from repro.serve.service import GroupingService

__all__ = ["Matchmaker"]

_log = logging.getLogger("repro.matchmaking")

#: Participant ids must be addressable as ``/v1/participants/{id}``.
_ID_RE = re.compile(r"^[A-Za-z0-9_.-]{1,128}$")

#: Default condenser-thread tick interval in seconds.
DEFAULT_TICK_INTERVAL = 0.05


def _member_order(participant: Participant) -> tuple[float, int]:
    """Canonical member sort key: skill descending, arrival breaking ties."""
    return (-participant.skill, participant.seq)


class Matchmaker:
    """Streaming admission layer over one grouping service.

    Args:
        service: the grouping service condensed cohorts are created on.
        specs: the condensable :class:`GroupSpec` shapes (≥ 1, unique
            names).
        clock: injectable monotonic clock shared with deadlines and
            wait accounting (tests fake it to drive :meth:`tick`).
        tick_interval: condenser-thread period in seconds; ``None``
            disables the thread so tests drive :meth:`tick` directly.
    """

    def __init__(
        self,
        service: "GroupingService",
        specs: Sequence[GroupSpec],
        *,
        clock: Any = time.monotonic,
        tick_interval: "float | None" = DEFAULT_TICK_INTERVAL,
    ) -> None:
        if not specs:
            raise ValueError("matchmaking requires at least one group spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"group-spec names must be unique, got {names}")
        if tick_interval is not None and (
            isinstance(tick_interval, bool)
            or not isinstance(tick_interval, (int, float))
            or not tick_interval > 0
        ):
            raise ValueError(
                f"tick_interval must be a positive number or None, got {tick_interval!r}"
            )
        self._service = service
        self.specs: dict[str, GroupSpec] = {spec.name: spec for spec in specs}
        self._clock = clock
        self._lock = _sanitize.lock("matchmaking.matchmaker")
        self.queue = JoinQueue()
        for name in self.specs:
            self.queue.register_spec(name)
        self._deadlines: dict[str, float] = {}
        self._condensed: dict[str, int] = {name: 0 for name in self.specs}
        self._cohort_ids: dict[str, list[str]] = {name: [] for name in self.specs}
        self._closed = False
        registry = _obs.metrics_registry()
        self._joins = registry.counter("matchmaking.joins")
        self._matched = registry.counter("matchmaking.matched")
        self._expired = registry.counter("matchmaking.expired")
        self._left = registry.counter("matchmaking.left")
        self._cohorts = registry.counter("matchmaking.cohorts")
        self._depth_gauge = registry.gauge("matchmaking.queue_depth")
        self._waiting_oldest = registry.gauge("matchmaking.oldest_wait_seconds")
        self._time_to_match = registry.histogram("matchmaking.time_to_match_seconds")
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        if tick_interval is not None:
            self._thread = threading.Thread(
                target=self._run_condenser,
                args=(float(tick_interval),),
                name="dygroups-matchmaker",
                daemon=True,
            )
            self._thread.start()

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Stop the condenser thread and refuse further work (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _require_open_locked(self) -> None:
        if self._closed:
            raise ServiceClosed("the matchmaking layer is shut down")

    def _run_condenser(self, interval: float) -> None:
        while True:
            _sanitize.check_blocking("event.wait(matchmaker tick)")
            if self._stop.wait(interval):
                return
            try:
                self.tick()
            except Exception:  # pragma: no cover - diagnostics only
                _log.exception("matchmaker tick failed")

    # -- operations --------------------------------------------------------

    def join(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Admit one arrival; condenses its spec when the pool fills.

        Payload fields: ``skill`` (required positive finite number), ``spec``
        (a configured spec name; optional when only one spec exists or
        the ``default`` spec is configured), ``participant`` (optional
        caller-chosen id).

        Raises:
            InvalidRequest: on validation failure.
            DuplicateJoin: the participant id is already registered.
            CapacityExhausted: the spec's cohort quota is spent (or the
                session store is full at condensation time).
        """
        participant_id, skill, spec = self._parse_join(payload)
        with self._lock:
            self._require_open_locked()
            if (
                spec.max_cohorts is not None
                and self._condensed[spec.name] >= spec.max_cohorts
            ):
                raise CapacityExhausted(
                    f"group spec {spec.name!r} condensed its quota of "
                    f"{spec.max_cohorts} cohort(s); joins are closed"
                )
            now = self._clock()
            participant = self.queue.join(participant_id, skill=skill, spec=spec.name, now=now)
            self._joins.inc()
            if self.queue.pending_count(spec.name) == 1:
                self._deadlines[spec.name] = now + spec.deadline_seconds
            self._emit("participant_join", participant=participant.id, spec=spec.name, skill=skill)
            if self.queue.pending_count(spec.name) >= spec.n:
                try:
                    self._condense_locked(spec, spec.n, now, trigger="fill")
                except CapacityExhausted:
                    # Session store full: the join itself succeeded — the
                    # wave stays pending and the deadline tick retries
                    # once the store frees capacity.
                    pass
            self._update_gauges_locked(now)
            return self.queue.describe(participant.id, now)

    def status(self, participant_id: str) -> dict[str, Any]:
        """``GET /v1/participants/{id}``: the participant's lifecycle state.

        Raises:
            ParticipantNotFound: unknown or aged-out id.
        """
        return self.queue.describe(participant_id, self._clock())

    def leave(self, participant_id: str) -> dict[str, Any]:
        """``DELETE /v1/participants/{id}``: remove a waiting participant.

        An already-resolved participant is reported unchanged — the
        response body carries the final status either way.

        Raises:
            ParticipantNotFound: unknown or aged-out id.
        """
        with self._lock:
            self._require_open_locked()
            now = self._clock()
            participant, removed = self.queue.leave(participant_id, now=now)
            if removed:
                self._left.inc()
                self._emit("participant_leave", participant=participant_id, spec=participant.spec)
                if self.queue.pending_count(participant.spec) == 0:
                    self._deadlines.pop(participant.spec, None)
            self._update_gauges_locked(now)
            return self.queue.describe(participant_id, now)

    def tick(self) -> "list[dict[str, Any]]":
        """Flush or expire every wave whose deadline fired.

        Returns the summaries of cohorts condensed by this call.  Safe
        to call concurrently with joins (one coarse lock) and cheap
        when no deadline is due.
        """
        condensed: list[dict[str, Any]] = []
        with self._lock:
            if self._closed:
                return condensed
            now = self._clock()
            for name, spec in self.specs.items():
                deadline = self._deadlines.get(name)
                if deadline is None or now < deadline:
                    continue
                pending = self.queue.pending_count(name)
                if pending == 0:
                    self._deadlines.pop(name, None)
                    continue
                quota_open = (
                    spec.max_cohorts is None
                    or self._condensed[name] < spec.max_cohorts
                )
                viable = (min(pending, spec.fill_max) // spec.k) * spec.k
                if quota_open and viable >= spec.fill_min:
                    try:
                        condensed.append(
                            self._condense_locked(spec, viable, now, trigger="deadline")
                        )
                    except CapacityExhausted:
                        # Session store full: leave the wave pending and
                        # retry at the next tick.
                        continue
                else:
                    self._expire_locked(spec, now)
            self._update_gauges_locked(now)
        return condensed

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready matchmaking state (``GET /v1/matchmaking``)."""
        with self._lock:
            now = self._clock()
            specs: dict[str, Any] = {}
            for name, spec in self.specs.items():
                deadline = self._deadlines.get(name)
                specs[name] = {
                    **spec.to_dict(),
                    "pending": self.queue.pending_count(name),
                    "condensed": self._condensed[name],
                    "cohorts": list(self._cohort_ids[name]),
                    "deadline_in_seconds": (
                        None if deadline is None else round(max(0.0, deadline - now), 6)
                    ),
                }
            return {
                "enabled": True,
                "waiting": self.queue.depth(),
                "condensed": sum(self._condensed.values()),
                "specs": specs,
            }

    # -- internals ---------------------------------------------------------

    def _parse_join(self, payload: Mapping[str, Any]) -> tuple["str | None", float, GroupSpec]:
        if not isinstance(payload, Mapping):
            raise InvalidRequest(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"skill", "spec", "participant"}
        if unknown:
            raise InvalidRequest(f"unknown fields in request: {sorted(unknown)}")
        skill = payload.get("skill")
        if isinstance(skill, bool) or not isinstance(skill, (int, float)):
            raise InvalidRequest(f"skill must be a positive number, got {skill!r}")
        try:
            skill = float(skill)
        except OverflowError:
            raise InvalidRequest("skill is too large to represent as a float") from None
        # A non-finite skill would join, then fail every condensation of
        # its spec (cohort skills must be finite) and block the spec.
        if not (math.isfinite(skill) and skill > 0):
            raise InvalidRequest(f"skill must be a positive finite number, got {skill!r}")
        spec_name = payload.get("spec")
        if spec_name is None:
            if DEFAULT_SPEC_NAME in self.specs:
                spec_name = DEFAULT_SPEC_NAME
            elif len(self.specs) == 1:
                spec_name = next(iter(self.specs))
            else:
                raise InvalidRequest(
                    f"spec is required (configured specs: {sorted(self.specs)})"
                )
        if spec_name not in self.specs:
            raise InvalidRequest(
                f"unknown group spec {spec_name!r} (configured: {sorted(self.specs)})"
            )
        participant_id = payload.get("participant")
        if participant_id is not None and (
            not isinstance(participant_id, str) or not _ID_RE.match(participant_id)
        ):
            raise InvalidRequest(
                f"participant id must match {_ID_RE.pattern}, got {participant_id!r}"
            )
        return participant_id, float(skill), self.specs[spec_name]

    def _select_window_locked(self, spec: GroupSpec, size: int) -> "list[Participant]":
        """Rank-window admission over the sorted pending pool.

        The pool is ranked by descending skill (arrival order breaking
        ties); the window of ``size`` contiguous ranks is centred on the
        longest-waiting participant's rank and clamped into the pool, so
        the condensed cohort is the most skill-compatible neighbourhood
        that still includes the participant owed service first.
        """
        pool = sorted(self.queue.pending(spec.name), key=_member_order)
        anchor = min(pool, key=lambda participant: participant.seq)
        rank = pool.index(anchor)
        start = min(max(rank - (size - 1) // 2, 0), len(pool) - size)
        return pool[start : start + size]

    def _condense_locked(
        self, spec: GroupSpec, size: int, now: float, *, trigger: str
    ) -> dict[str, Any]:
        """Condense ``size`` participants of ``spec`` into a real cohort."""
        members = self._select_window_locked(spec, size)
        members.sort(key=_member_order)
        skills = [participant.skill for participant in members]
        payload = spec.cohort_payload(skills, self._condensed[spec.name])
        # May raise CapacityExhausted (store full): members stay pending
        # and the wave retries at the next fill/deadline opportunity.
        info = self._service.create_cohort(payload)
        cohort_id = str(info["cohort"])
        self.queue.resolve_matched(members, cohort_id, now=now)
        self._condensed[spec.name] += 1
        self._cohort_ids[spec.name].append(cohort_id)
        self._cohorts.inc()
        self._matched.inc(len(members))
        for participant in members:
            self._time_to_match.observe(participant.wait_seconds(now))
        if self.queue.pending_count(spec.name) > 0:
            self._deadlines[spec.name] = now + spec.deadline_seconds
        else:
            self._deadlines.pop(spec.name, None)
        self._emit(
            "cohort_condense",
            spec=spec.name,
            cohort=cohort_id,
            size=len(members),
            trigger=trigger,
            seed=payload["seed"],
        )
        return {
            "cohort": cohort_id,
            "spec": spec.name,
            "size": len(members),
            "trigger": trigger,
            "participants": [participant.id for participant in members],
        }

    def _expire_locked(self, spec: GroupSpec, now: float) -> None:
        expired = self.queue.expire_spec(spec.name, now=now)
        self._deadlines.pop(spec.name, None)
        self._expired.inc(len(expired))
        self._emit(
            "participant_expire",
            spec=spec.name,
            count=len(expired),
            participants=[participant.id for participant in expired],
        )

    def _update_gauges_locked(self, now: float) -> None:
        self._depth_gauge.set(self.queue.depth())
        # Pools keep arrival order, so each spec's longest wait is its first pending one.
        oldest = 0.0
        for name in self.specs:
            first = self.queue.first_pending(name)
            if first is not None:
                oldest = max(oldest, first.wait_seconds(now))
        self._waiting_oldest.set(round(oldest, 6))

    def _emit(self, event: str, **fields: Any) -> None:
        state = _obs.state()
        if state is not None and state.journal is not None:
            state.journal.emit(event, **fields)

    def __repr__(self) -> str:
        return (
            f"Matchmaker(specs={sorted(self.specs)}, waiting={self.queue.depth()}, "
            f"condensed={sum(self._condensed.values())}, closed={self._closed})"
        )
