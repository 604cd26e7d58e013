"""The grouping service: sessions, memo and round path behind one facade.

:class:`GroupingService` is the transport-agnostic application layer —
the HTTP front-end (:mod:`repro.serve.http`) and the in-process client
(:mod:`repro.serve.client`) both call the same operations with the same
JSON-shaped payloads, so validation, routing, metrics, and journal
events live in exactly one place.  When
:attr:`~repro.serve.config.ServeConfig.matchmaking` is configured the
service also fronts a :class:`repro.matchmaking.Matchmaker` — the
streaming admission layer condensing individual joins into cohorts
through this very ``create_cohort`` path (off by default; its endpoints
answer ``404 matchmaking_disabled``).

Round routing: every cohort's rounds run on the request thread through
:meth:`BatchScheduler.step_rounds <repro.serve.scheduler.BatchScheduler.step_rounds>`.
The deterministic DyGroups groupers propose from the grouping memo when
it is on; every other registered policy — stochastic or stateful —
proposes on its per-cohort instance with the cohort's own seeded
generator, preserving the offline engine's reproducibility guarantees.

Cohorts are created from the unified policy registry
(:mod:`repro.registry`): the ``policy`` field accepts any registered
name *or* a typed spec string such as ``"percentile:p=0.9"``.

All request validation routes through :mod:`repro._validation`;
violations surface as :class:`~repro.serve.errors.InvalidRequest`
(HTTP 400) with the validator's message intact.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro._validation import (
    as_skill_array,
    require_divisible_groups,
    require_learning_rate,
    require_positive_int,
)
from repro.analysis import sanitizer as _sanitize
from repro.core.gain_functions import LinearGain
from repro.core.interactions import get_mode
from repro.obs import runtime as _obs
from repro.obs import trace as _trace
from repro.obs.metrics import render_prometheus
from repro.registry import PolicySpec, build_policy
from repro.scenarios.slo import SLOReport, evaluate_slos, slo_prometheus_lines
from repro.scenarios.spec import SLOSpec
from repro.serve.cache import GroupingCache
from repro.serve.config import MAX_BODY_BYTES, ServeConfig
from repro.serve.errors import InvalidRequest, MatchmakingDisabled, ServiceClosed
from repro.serve.scheduler import BatchScheduler
from repro.serve.sessions import CohortSession, SessionStore

__all__ = ["GroupingService", "MAX_MEMBER_ROUNDS"]

#: Most member-rounds (``rounds × n``) one advance request may play.  Every
#: played round lists all ``n`` members, at up to 8 bytes of JSON each below
#: a million members (six digits and ``", "``), so a response stays within
#: the largest request body and a request's work stays bounded.
MAX_MEMBER_ROUNDS = MAX_BODY_BYTES // 8


def _field(payload: Mapping[str, Any], name: str, default: Any = None, *, required: bool = False) -> Any:
    if name in payload:
        return payload[name]
    if required:
        raise InvalidRequest(f"missing required field {name!r}")
    return default


class GroupingService:
    """Long-running grouping service over the reproduction's core.

    Args:
        config: service tunables; defaults to :class:`ServeConfig()`.
        clock: injectable monotonic clock for the session store (tests
            fake it to drive TTL eviction).
    """

    def __init__(
        self,
        config: "ServeConfig | None" = None,
        *,
        clock: Any = time.monotonic,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self._closed = False
        self._close_lock = _sanitize.lock("serve.service.close")
        self._started = time.monotonic()
        registry = _obs.metrics_registry()
        self._cohorts_created = registry.counter("serve.cohorts.created")
        self._cohorts_deleted = registry.counter("serve.cohorts.deleted")
        self._cohorts_evicted = registry.counter("serve.cohorts.evicted")
        self._rounds_advanced = registry.counter("serve.rounds.advanced")
        self._sessions_active = registry.gauge("serve.sessions.active")
        self.slo = SLOSpec.from_dict(self.config.slo) if self.config.slo else None
        self.store = SessionStore(
            ttl_seconds=self.config.session_ttl,
            max_sessions=self.config.max_cohorts,
            clock=clock,
            on_evict=self._record_eviction,
        )
        self.cache = GroupingCache(self.config.cache_size) if self.config.cache_size > 0 else None
        self.scheduler = BatchScheduler(self.cache)
        self.matchmaker = (
            self._build_matchmaker(self.config.matchmaking, clock)
            if self.config.matchmaking is not None
            else None
        )

    def _build_matchmaker(self, payload: Mapping[str, Any], clock: Any) -> Any:
        """Construct the matchmaking layer from ``ServeConfig.matchmaking``.

        Imported lazily: :mod:`repro.matchmaking` builds on the serve
        errors/config modules, so a top-level import here would cycle.
        """
        from repro.matchmaking.matchmaker import DEFAULT_TICK_INTERVAL, Matchmaker
        from repro.matchmaking.spec import GroupSpec

        options = dict(payload)
        specs_payload = options.pop("specs", None)
        tick_interval = options.pop("tick_interval", DEFAULT_TICK_INTERVAL)
        if options:
            raise ValueError(f"unknown matchmaking fields: {sorted(options)}")
        if specs_payload is None:
            specs_payload = [{}]
        if isinstance(specs_payload, (str, bytes)) or not isinstance(specs_payload, (list, tuple)):
            raise ValueError(
                f"matchmaking specs must be a list of group-spec mappings, got {specs_payload!r}"
            )
        specs = [GroupSpec.from_dict(item) for item in specs_payload]
        return Matchmaker(self, specs, clock=clock, tick_interval=tick_interval)

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Stop the matchmaker and drop every session (idempotent)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self.matchmaker is not None:
            self.matchmaker.close()
        self.store.clear()

    def __enter__(self) -> "GroupingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceClosed("the grouping service is shut down")

    def _record_eviction(self, session: CohortSession) -> None:
        self._cohorts_evicted.inc()
        self._sessions_active.set(len(self.store))
        state = _obs.state()
        if state is not None and state.journal is not None:
            state.journal.emit("cohort_evict", cohort=session.id, rounds=session.rounds)

    # -- operations --------------------------------------------------------

    def create_cohort(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Create a cohort session from a JSON-shaped payload.

        Payload fields: ``skills`` (required list of positive numbers),
        ``k`` (required int dividing ``n``), ``mode`` (``"star"``, the
        default, or ``"clique"``), ``rate`` (learning rate in (0, 1),
        default 0.5), ``policy`` (any registered name or typed spec
        string like ``"percentile:p=0.9"``, default ``"dygroups"``),
        ``seed`` (non-negative int, default 0), ``record_history``
        (bool, default false).

        Raises:
            InvalidRequest: on any validation failure.
            CapacityExhausted: when the store is full.
        """
        self._require_open()
        if not isinstance(payload, Mapping):
            raise InvalidRequest(f"request body must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - {"skills", "k", "mode", "rate", "policy", "seed", "record_history"}
        if unknown:
            raise InvalidRequest(f"unknown fields in request: {sorted(unknown)}")
        try:
            skills = as_skill_array(_field(payload, "skills", required=True))
            k = require_positive_int(_field(payload, "k", required=True), name="k")
            require_divisible_groups(len(skills), k)
            mode = get_mode(_field(payload, "mode", "star"))
            rate = require_learning_rate(_field(payload, "rate", 0.5))
            seed_raw = _field(payload, "seed", 0)
            if isinstance(seed_raw, bool) or not isinstance(seed_raw, int):
                raise TypeError(f"seed must be an int, got {type(seed_raw).__name__}")
            if seed_raw < 0:
                raise ValueError(f"seed must be non-negative, got {seed_raw}")
            seed = int(seed_raw)
            record_history = bool(_field(payload, "record_history", False))
            spec = PolicySpec.parse(str(_field(payload, "policy", "dygroups")))
            policy_name = spec.canonical()
            policy = build_policy(spec, mode=mode.name, rate=rate)
        except (TypeError, ValueError) as error:
            raise InvalidRequest(str(error)) from error

        with _trace.span("serve.create_cohort", policy=policy_name, n=len(skills), k=k):
            session = self.store.add(
                lambda session_id: CohortSession(
                    session_id,
                    policy=policy,
                    policy_name=policy_name,
                    mode=mode,
                    gain_fn=LinearGain(rate),
                    k=k,
                    rate=rate,
                    seed=seed,
                    skills=skills,
                    record_history=record_history,
                )
            )
        self._cohorts_created.inc()
        self._sessions_active.set(len(self.store))
        state = _obs.state()
        if state is not None and state.journal is not None:
            state.journal.emit(
                "cohort_create",
                cohort=session.id,
                policy=policy_name,
                mode=mode.name,
                n=session.n,
                k=k,
            )
        return session.describe()

    def advance_rounds(self, cohort_id: str, rounds: int = 1) -> dict[str, Any]:
        """Advance a cohort by ``rounds`` rounds; returns the new records.

        Raises:
            InvalidRequest: for a non-positive round count, or one whose
                ``rounds × n`` exceeds :data:`MAX_MEMBER_ROUNDS`.
            CohortNotFound / SessionExpired: for unknown or aged-out ids.
        """
        self._require_open()
        try:
            rounds = require_positive_int(rounds, name="rounds")
        except (TypeError, ValueError) as error:
            raise InvalidRequest(str(error)) from error
        session = self.store.get(cohort_id)
        if rounds * session.n > MAX_MEMBER_ROUNDS:
            raise InvalidRequest(
                f"rounds x n = {rounds} x {session.n} exceeds {MAX_MEMBER_ROUNDS} "
                f"member-rounds per request; advance in smaller steps"
            )
        with _trace.span("serve.advance", cohort=cohort_id, rounds=rounds):
            played = self.scheduler.step_rounds(session, rounds)
        self._rounds_advanced.inc(rounds)
        state = _obs.state()
        if state is not None and state.journal is not None:
            for record in played:
                state.journal.emit(
                    "cohort_round",
                    cohort=cohort_id,
                    round=record["round"],
                    gain=record["gain"],
                )
        return {
            "cohort": cohort_id,
            "rounds": session.rounds,
            "total_gain": session.total_gain,
            "played": played,
        }

    def get_cohort(self, cohort_id: str, *, include_history: bool = False) -> dict[str, Any]:
        """Inspect a cohort and its trajectory (refreshes its TTL)."""
        self._require_open()
        return self.store.get(cohort_id).describe(include_history=include_history)

    def delete_cohort(self, cohort_id: str) -> dict[str, Any]:
        """Remove a cohort; returns its final summary."""
        self._require_open()
        session = self.store.delete(cohort_id)
        self._cohorts_deleted.inc()
        self._sessions_active.set(len(self.store))
        state = _obs.state()
        if state is not None and state.journal is not None:
            state.journal.emit("cohort_delete", cohort=cohort_id, rounds=session.rounds)
        return session.describe()

    # -- matchmaking -------------------------------------------------------

    def _matchmaker_required(self) -> Any:
        if self.matchmaker is None:
            raise MatchmakingDisabled(
                "this service was started without matchmaking; "
                "restart with `dygroups serve --matchmaking`"
            )
        return self.matchmaker

    def join(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Admit one participant into the join queue (``POST /v1/join``).

        Raises:
            MatchmakingDisabled: the layer is off for this service.
            InvalidRequest / DuplicateJoin / CapacityExhausted: from the
                matchmaker's admission path.
        """
        self._require_open()
        return self._matchmaker_required().join(payload)

    def participant_status(self, participant_id: str) -> dict[str, Any]:
        """One participant's lifecycle state (``waiting | matched | expired | left``)."""
        self._require_open()
        return self._matchmaker_required().status(participant_id)

    def leave_queue(self, participant_id: str) -> dict[str, Any]:
        """Remove a waiting participant from the queue (``DELETE``)."""
        self._require_open()
        return self._matchmaker_required().leave(participant_id)

    def matchmaking_snapshot(self) -> dict[str, Any]:
        """Queue depths, spec states, and condensed cohorts (``GET /v1/matchmaking``)."""
        self._require_open()
        return self._matchmaker_required().snapshot()

    def healthz(self) -> dict[str, Any]:
        """Liveness payload: status, uptime, live cohorts, cache stats."""
        payload: dict[str, Any] = {
            "status": "closed" if self._closed else "ok",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "cohorts": len(self.store),
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats()
        if self.matchmaker is not None:
            payload["matchmaking"] = {
                "waiting": self.matchmaker.queue.depth(),
                "specs": sorted(self.matchmaker.specs),
            }
        return payload

    def metrics_snapshot(self) -> dict[str, Any]:
        """The process-global metrics registry, snapshotted.

        When the service was configured with SLO targets the payload
        gains a top-level ``"slo"`` verdict block evaluated against the
        live ``serve.http.*`` instruments.
        """
        snapshot: dict[str, Any] = _obs.metrics_registry().snapshot()
        if self.slo is not None:
            snapshot["slo"] = self._slo_report(snapshot).to_dict()
        return snapshot

    def metrics_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Configured SLO targets append ``repro_slo_passed`` /
        ``repro_slo_target_passed{target=...}`` gauges to the page.
        """
        snapshot = _obs.metrics_registry().snapshot()
        text = render_prometheus(snapshot)
        if self.slo is not None:
            text += slo_prometheus_lines(self._slo_report(snapshot))
        return text

    def _slo_report(self, snapshot: Mapping[str, Any]) -> SLOReport:
        """Judge the configured SLO targets against ``snapshot``."""
        assert self.slo is not None
        return evaluate_slos(
            self.slo,
            snapshot,
            latency="serve.http.request_seconds",
            requests="serve.http.requests",
            errors=("serve.http.status.4xx", "serve.http.status.5xx"),
            duration_seconds=max(time.monotonic() - self._started, 1e-9),
        )

    def __repr__(self) -> str:
        return (
            f"GroupingService(cohorts={len(self.store)}, "
            f"cache={'on' if self.cache is not None else 'off'}, closed={self._closed})"
        )
