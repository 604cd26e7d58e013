"""In-memory cohort sessions with TTL eviction.

A :class:`CohortSession` is one live cohort: its immutable configuration
(policy, mode, ``k``, learning rate, seed), its evolving state (current
skills, the per-round generator — built from the seed at the first
round — gains, optional history), and a private
``_lock`` that serializes round advancement — concurrent ``advance``
calls on the same cohort interleave safely and every round gets a unique
index.  Locks come from the :mod:`repro.analysis.sanitizer` factories:
plain stdlib locks in production, instrumented wrappers under
``REPRO_SANITIZE=1`` that check lock ordering at test time.  No code
path holds two session locks at once.

The :class:`SessionStore` is the thread-safe registry: create/get/delete
by id, lazy TTL eviction on every access (plus an explicit
:meth:`SessionStore.evict_expired` sweep), and a bounded memory of
recently evicted ids so the API can answer ``410 session_expired``
rather than a bare 404 for cohorts that aged out.

Round advancement *is* the offline engine's round step: each session
owns a :class:`repro.engine.kernel.RoundKernel` (built with
``instrument=False`` so served rounds emit no ``core.*`` events) and
delegates propose → update → gain → contracts to it, so a cohort
advanced ``α`` times over the service is bit-identical to an offline
``simulate`` run with the same seed (pinned by the integration tests).

Clock discipline: TTLs are measured on an injectable *monotonic* clock
(never jumps backwards); the wall clock is read only for the
``created_utc`` display timestamp.  ``src/repro/serve/`` is on the
documented DYG103 allowlist for exactly this kind of read.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict, deque
from datetime import datetime, timezone
from typing import Any, Callable

import numpy as np

from repro.core.gain_functions import GainFunction
from repro.core.interactions import InteractionMode
from repro.core.simulation import GroupingPolicy
from repro.engine.kernel import ProposeFn, RoundKernel
from repro.analysis import sanitizer as _sanitize
from repro.serve.errors import CapacityExhausted, CohortNotFound, SessionExpired

__all__ = ["CohortSession", "SessionStore"]

#: How many evicted cohort ids the store remembers for 410 answers.
_EVICTED_MEMORY = 1024


class CohortSession:
    """One live cohort and its trajectory.

    Built by :meth:`SessionStore.create`; callers advance it through
    :meth:`advance_round` while holding no external locks — the session
    serializes itself.
    """

    def __init__(
        self,
        session_id: str,
        *,
        policy: GroupingPolicy,
        policy_name: str,
        mode: InteractionMode,
        gain_fn: GainFunction,
        k: int,
        rate: float,
        seed: int,
        skills: np.ndarray,
        record_history: bool = False,
    ) -> None:
        self.id = session_id
        self.policy = policy
        self.policy_name = policy_name
        self.mode = mode
        self.gain_fn = gain_fn
        self.k = int(k)
        self.rate = float(rate)
        self.seed = int(seed)
        self.skills = skills.copy()
        # Built on the first round: a condensed cohort that never plays
        # one never pays for a generator (see _rng_locked).
        self._rng: "np.random.Generator | None" = None
        self.round_gains: list[float] = []
        self.skill_history: "list[np.ndarray] | None" = [skills.copy()] if record_history else None
        self._lock = _sanitize.lock("serve.session")
        self.created_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
        # instrument=False: served rounds emit serve.* telemetry from the
        # service layer, never the offline engine's core.* events.
        self._kernel = RoundKernel(policy, mode, gain_fn, instrument=False)
        self.policy.reset()

    @property
    def n(self) -> int:
        """Number of participants."""
        return int(self.skills.size)

    @property
    def rounds(self) -> int:
        """Rounds advanced so far."""
        return len(self.round_gains)

    @property
    def total_gain(self) -> float:
        """Aggregated learning gain over every advanced round."""
        return float(np.sum(self.round_gains)) if self.round_gains else 0.0

    def advance_round(self, propose: "ProposeFn | None" = None) -> dict[str, Any]:
        """Advance one round and return its record.

        Delegates the round step — propose, shape check, skill update,
        gain accounting, runtime contracts — to the session's
        :class:`~repro.engine.kernel.RoundKernel`, the same kernel the
        offline ``simulate`` driver runs.

        Args:
            propose: optional override for the propose step (the round
                path passes the grouping memo's for DyGroups policies);
                defaults to the session policy's own
                :meth:`~repro.core.simulation.GroupingPolicy.propose`.

        Returns:
            ``{"round": t, "gain": g, "groups": [[...], ...]}`` where
            ``t`` is the 0-based index of the round just played.
        """
        with self._lock:
            outcome = self._kernel.step(
                self.skills,
                self.k,
                self._rng_locked(),
                round_index=len(self.round_gains),
                propose=propose,
            )
            self.skills = outcome.updated
            self.round_gains.append(outcome.gain)
            if self.skill_history is not None:
                self.skill_history.append(outcome.updated.copy())
            return {
                "round": len(self.round_gains) - 1,
                "gain": outcome.gain,
                "groups": [list(group) for group in outcome.grouping],
            }

    def _rng_locked(self) -> np.random.Generator:
        """The round generator, seeded with ``seed`` when first needed.

        A generator seeded with ``seed`` yields the same stream whenever
        it is built, so building it late keeps rounds bit-identical to
        ``simulate()``.
        """
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def describe(self, *, include_history: bool = False) -> dict[str, Any]:
        """JSON-ready summary of the cohort and its trajectory."""
        with self._lock:
            payload: dict[str, Any] = {
                "cohort": self.id,
                "policy": self.policy_name,
                "mode": self.mode.name,
                "n": self.n,
                "k": self.k,
                "rate": self.rate,
                "seed": self.seed,
                "rounds": self.rounds,
                "total_gain": self.total_gain,
                "round_gains": [float(g) for g in self.round_gains],
                "skills": [float(s) for s in self.skills],
                "created_utc": self.created_utc,
            }
            if include_history and self.skill_history is not None:
                payload["skill_history"] = [[float(s) for s in row] for row in self.skill_history]
            return payload

    def __repr__(self) -> str:
        return (
            f"CohortSession(id={self.id!r}, policy={self.policy_name!r}, "
            f"mode={self.mode.name!r}, n={self.n}, k={self.k}, rounds={self.rounds})"
        )


class SessionStore:
    """Thread-safe cohort registry with TTL eviction.

    Args:
        ttl_seconds: seconds of inactivity (no get/advance) before a
            cohort is evicted.
        max_sessions: admission bound; :meth:`create` raises
            :class:`~repro.serve.errors.CapacityExhausted` beyond it.
        clock: monotonic-clock callable, injectable for tests.
        on_evict: optional callback invoked with each evicted session
            (the service uses it for journal events and counters).
    """

    def __init__(
        self,
        *,
        ttl_seconds: float = 1800.0,
        max_sessions: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        on_evict: "Callable[[CohortSession], None] | None" = None,
    ) -> None:
        if not ttl_seconds > 0:
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds!r}")
        if not isinstance(max_sessions, int) or isinstance(max_sessions, bool) or max_sessions <= 0:
            raise ValueError(f"max_sessions must be a positive int, got {max_sessions!r}")
        self.ttl_seconds = float(ttl_seconds)
        self.max_sessions = max_sessions
        self._clock = clock
        self._on_evict = on_evict
        # RLock: delete() re-enters get() under the same lock.
        self._lock = _sanitize.rlock("serve.sessions.store")
        self._sessions: dict[str, CohortSession] = {}
        # One TTL on a monotonic clock: touch order is deadline order.
        self._deadlines: "OrderedDict[str, float]" = OrderedDict()
        self._evicted_ids: "deque[str]" = deque(maxlen=_EVICTED_MEMORY)
        self._evicted_set: set[str] = set()
        self._counter = itertools.count(1)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def ids(self) -> list[str]:
        """Live cohort ids (eviction runs first)."""
        with self._lock:
            self._evict_expired_locked()
            return sorted(self._sessions)

    def add(self, build: Callable[[str], CohortSession]) -> CohortSession:
        """Admit a new session built by ``build(new_id)``.

        The two-step shape keeps id allocation inside the store's lock
        while the (potentially heavy) session construction stays outside
        critical work done by other threads.

        Raises:
            CapacityExhausted: when the store is at ``max_sessions`` even
                after evicting expired cohorts.
        """
        with self._lock:
            self._evict_expired_locked()
            if len(self._sessions) >= self.max_sessions:
                raise CapacityExhausted(
                    f"session store holds {len(self._sessions)} cohorts "
                    f"(max_sessions={self.max_sessions}); retry after TTL eviction"
                )
            session_id = f"c{next(self._counter):06d}"
            session = build(session_id)
            self._sessions[session_id] = session
            self._deadlines[session_id] = self._clock() + self.ttl_seconds
            return session

    def get(self, session_id: str, *, touch: bool = True) -> CohortSession:
        """Look up a live cohort; refreshes its TTL by default.

        Raises:
            SessionExpired: the cohort existed but aged out.
            CohortNotFound: the id was never (recently) registered.
        """
        with self._lock:
            self._evict_expired_locked()
            session = self._sessions.get(session_id)
            if session is None:
                if session_id in self._evicted_set:
                    raise SessionExpired(
                        f"cohort {session_id!r} expired after {self.ttl_seconds:g}s idle"
                    )
                raise CohortNotFound(f"no cohort registered under id {session_id!r}")
            if touch:
                self._deadlines[session_id] = self._clock() + self.ttl_seconds
                self._deadlines.move_to_end(session_id)
            return session

    def delete(self, session_id: str) -> CohortSession:
        """Remove and return a cohort (404/410 semantics as :meth:`get`)."""
        with self._lock:
            session = self.get(session_id, touch=False)
            del self._sessions[session_id]
            del self._deadlines[session_id]
            return session

    def evict_expired(self) -> list[str]:
        """Evict every expired cohort; returns the evicted ids."""
        with self._lock:
            return self._evict_expired_locked()

    def _evict_expired_locked(self) -> list[str]:
        now = self._clock()
        evicted: list[str] = []
        while self._deadlines and next(iter(self._deadlines.values())) <= now:
            sid, _ = self._deadlines.popitem(last=False)
            session = self._sessions.pop(sid)
            if len(self._evicted_ids) == self._evicted_ids.maxlen:
                self._evicted_set.discard(self._evicted_ids[0])
            self._evicted_ids.append(sid)
            self._evicted_set.add(sid)
            evicted.append(sid)
            if self._on_evict is not None:
                self._on_evict(session)
        return evicted

    def clear(self) -> None:
        """Drop every session and the eviction memory."""
        with self._lock:
            self._sessions.clear()
            self._deadlines.clear()
            self._evicted_ids.clear()
            self._evicted_set.clear()

    def __repr__(self) -> str:
        return (
            f"SessionStore(sessions={len(self._sessions)}, "
            f"ttl_seconds={self.ttl_seconds:g}, max_sessions={self.max_sessions})"
        )
