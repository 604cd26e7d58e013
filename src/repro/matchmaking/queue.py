"""Thread-safe join queue: the pending pool behind ``POST /v1/join``.

A :class:`Participant` is one arrival: an id, a skill, the
:class:`~repro.matchmaking.spec.GroupSpec` it joined, and a lifecycle
status — ``waiting`` while pending, then exactly one of ``matched``
(with the condensed cohort id and member index), ``expired`` (its wave's
deadline fired below ``min_fill``), or ``left`` (``DELETE
/v1/participants/{id}``).

The :class:`JoinQueue` is the storage layer only — every method is an
atomic operation under one sanitizer-factory lock
(``matchmaking.queue``), and *selection policy* (which participants
condense, when) lives entirely in
:class:`~repro.matchmaking.matchmaker.Matchmaker`, which serializes all
mutating traffic under its own coarser lock.  Status reads
(:meth:`describe`) take only the queue lock, so ``GET
/v1/participants/{id}`` never contends with a condensation in progress
beyond a dictionary lookup.

Resolved participants (matched / expired / left) stay readable through a
bounded memory (mirroring the session store's evicted-id deque): the
oldest resolved records age out after ``resolved_memory`` resolutions
and subsequent lookups raise ``404 participant_not_found``.

Clock discipline: waits and deadlines are measured on the caller's
injectable *monotonic* clock; the wall clock is read only for the
``joined_utc`` display timestamp (``src/repro/matchmaking/`` is on the
documented DYG103 allowlist for exactly this kind of read).
"""

from __future__ import annotations

import itertools
from collections import deque
from datetime import datetime, timezone
from typing import Any, Iterable

from repro.analysis import sanitizer as _sanitize
from repro.serve.errors import DuplicateJoin, ParticipantNotFound

__all__ = ["Participant", "JoinQueue", "PARTICIPANT_STATUSES"]

#: Every lifecycle status a participant can report.
PARTICIPANT_STATUSES = ("waiting", "matched", "expired", "left")

#: How many resolved participants stay readable for status queries.
_RESOLVED_MEMORY = 4096


class Participant:
    """One arrival and its lifecycle state (mutated only by the queue)."""

    __slots__ = (
        "id",
        "skill",
        "spec",
        "seq",
        "joined_at",
        "joined_utc",
        "status",
        "cohort",
        "member",
        "resolved_at",
    )

    def __init__(self, participant_id: str, *, skill: float, spec: str, seq: int, now: float) -> None:
        self.id = participant_id
        self.skill = float(skill)
        self.spec = spec
        self.seq = int(seq)
        self.joined_at = float(now)
        self.joined_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self.status = "waiting"
        self.cohort: "str | None" = None
        self.member: "int | None" = None
        self.resolved_at: "float | None" = None

    def wait_seconds(self, now: float) -> float:
        """Seconds waited: to ``now`` while pending, else to resolution."""
        end = now if self.resolved_at is None else self.resolved_at
        return max(0.0, end - self.joined_at)

    def __repr__(self) -> str:
        return (
            f"Participant(id={self.id!r}, spec={self.spec!r}, "
            f"skill={self.skill:g}, status={self.status!r})"
        )


class JoinQueue:
    """Thread-safe participant registry with per-spec pending pools.

    Args:
        resolved_memory: how many resolved (matched/expired/left)
            participants stay readable before the oldest age out.
    """

    def __init__(self, *, resolved_memory: int = _RESOLVED_MEMORY) -> None:
        if not isinstance(resolved_memory, int) or isinstance(resolved_memory, bool) or resolved_memory <= 0:
            raise ValueError(f"resolved_memory must be a positive int, got {resolved_memory!r}")
        self._lock = _sanitize.lock("matchmaking.queue")
        self._participants: dict[str, Participant] = {}
        # Insertion order of these dicts *is* the arrival order.
        self._pending: dict[str, dict[str, Participant]] = {}
        self._resolved: "deque[str]" = deque()
        self._resolved_memory = resolved_memory
        self._seq = itertools.count(1)
        self._auto = itertools.count(1)

    def register_spec(self, name: str) -> None:
        """Ensure a pending pool exists for spec ``name``."""
        with self._lock:
            self._pending.setdefault(name, {})

    def __len__(self) -> int:
        with self._lock:
            return len(self._participants)

    def depth(self) -> int:
        """Total participants currently waiting, across every spec."""
        with self._lock:
            return sum(len(pool) for pool in self._pending.values())

    def pending_count(self, spec: str) -> int:
        """Participants currently waiting on spec ``spec``."""
        with self._lock:
            return len(self._pending.get(spec, ()))

    def pending(self, spec: str) -> "list[Participant]":
        """The waiting participants of ``spec``, in arrival order."""
        with self._lock:
            return list(self._pending.get(spec, {}).values())

    def first_pending(self, spec: str) -> "Participant | None":
        """The earliest arrival still waiting on ``spec`` (its longest wait), if any."""
        with self._lock:
            return next(iter(self._pending.get(spec, {}).values()), None)

    def join(
        self, participant_id: "str | None", *, skill: float, spec: str, now: float
    ) -> Participant:
        """Admit one arrival into ``spec``'s pending pool.

        Raises:
            DuplicateJoin: the id is already registered (waiting or
                still within the resolved memory).
        """
        with self._lock:
            if participant_id is None:
                while (candidate := f"p{next(self._auto):06d}") in self._participants:
                    pass
                participant_id = candidate
            elif participant_id in self._participants:
                existing = self._participants[participant_id]
                raise DuplicateJoin(
                    f"participant {participant_id!r} already joined "
                    f"(status {existing.status!r}); DELETE it first to rejoin"
                )
            participant = Participant(
                participant_id, skill=skill, spec=spec, seq=next(self._seq), now=now
            )
            self._participants[participant_id] = participant
            self._pending.setdefault(spec, {})[participant_id] = participant
            return participant

    def get(self, participant_id: str) -> Participant:
        """Look up a participant still in memory.

        Raises:
            ParticipantNotFound: never joined, or aged out of the
                resolved memory.
        """
        with self._lock:
            return self._get_locked(participant_id)

    def _get_locked(self, participant_id: str) -> Participant:
        participant = self._participants.get(participant_id)
        if participant is None:
            raise ParticipantNotFound(
                f"no participant registered under id {participant_id!r}"
            )
        return participant

    def describe(self, participant_id: str, now: float) -> dict[str, Any]:
        """The status payload of ``GET /v1/participants/{id}``."""
        with self._lock:
            participant = self._get_locked(participant_id)
            payload: dict[str, Any] = {
                "participant": participant.id,
                "status": participant.status,
                "spec": participant.spec,
                "skill": participant.skill,
                "wait_seconds": round(participant.wait_seconds(now), 6),
                "joined_utc": participant.joined_utc,
            }
            if participant.status == "waiting":
                pool = self._pending.get(participant.spec, {})
                payload["position"] = list(pool).index(participant.id)
            if participant.cohort is not None:
                payload["cohort"] = participant.cohort
                payload["member"] = participant.member
            return payload

    def resolve_matched(
        self, members: "Iterable[Participant]", cohort_id: str, *, now: float
    ) -> None:
        """Mark ``members`` matched into ``cohort_id`` (in member order)."""
        with self._lock:
            for index, participant in enumerate(members):
                pool = self._pending.get(participant.spec, {})
                pool.pop(participant.id, None)
                participant.status = "matched"
                participant.cohort = cohort_id
                participant.member = index
                participant.resolved_at = now
                self._remember_resolved_locked(participant.id)

    def expire_spec(self, spec: str, *, now: float) -> "list[Participant]":
        """Expire every participant waiting on ``spec``; returns them."""
        with self._lock:
            pool = self._pending.get(spec, {})
            expired = list(pool.values())
            pool.clear()
            for participant in expired:
                participant.status = "expired"
                participant.resolved_at = now
                self._remember_resolved_locked(participant.id)
            return expired

    def leave(self, participant_id: str, *, now: float) -> tuple[Participant, bool]:
        """Handle ``DELETE``: remove a waiting participant from its pool.

        Returns ``(participant, removed)`` where ``removed`` is true when
        the participant was waiting and has now left; an
        already-resolved participant is returned unchanged (the DELETE
        is idempotent and its body reports the final status).
        """
        with self._lock:
            participant = self._get_locked(participant_id)
            if participant.status != "waiting":
                return participant, False
            self._pending.get(participant.spec, {}).pop(participant_id, None)
            participant.status = "left"
            participant.resolved_at = now
            self._remember_resolved_locked(participant_id)
            return participant, True

    def _remember_resolved_locked(self, participant_id: str) -> None:
        self._resolved.append(participant_id)
        while len(self._resolved) > self._resolved_memory:
            aged_out = self._resolved.popleft()
            self._participants.pop(aged_out, None)

    def __repr__(self) -> str:
        with self._lock:
            waiting = sum(len(pool) for pool in self._pending.values())
            return f"JoinQueue(participants={len(self._participants)}, waiting={waiting})"
