"""Unit tests for the cohort session store (TTL, capacity, identity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gain_functions import LinearGain
from repro.core.interactions import get_mode
from repro.core.simulation import simulate
from repro.registry import build_policy
from repro.serve.errors import CapacityExhausted, CohortNotFound, SessionExpired
from repro.serve.sessions import CohortSession, SessionStore


def build_session(session_id: str, skills: np.ndarray, *, k: int = 3, mode: str = "star",
                  rate: float = 0.5, seed: int = 0, record_history: bool = False) -> CohortSession:
    return CohortSession(
        session_id,
        policy=build_policy("dygroups", mode=mode, rate=rate),
        policy_name="dygroups",
        mode=get_mode(mode),
        gain_fn=LinearGain(rate),
        k=k,
        rate=rate,
        seed=seed,
        skills=skills,
        record_history=record_history,
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def skills() -> np.ndarray:
    return np.random.default_rng(0).uniform(1.0, 5.0, size=12)


class TestCohortSession:
    def test_advance_matches_offline_simulate(self, skills):
        session = build_session("c1", skills, k=3, mode="star", seed=11)
        for _ in range(5):
            session.advance_round()
        reference = simulate(
            build_policy("dygroups", mode="star", rate=0.5),
            skills, k=3, alpha=5, mode="star", rate=0.5, seed=11,
        )
        assert np.array_equal(session.skills, reference.final_skills)
        assert session.round_gains == [float(g) for g in reference.round_gains]

    def test_round_records_are_indexed_and_grouped(self, skills):
        session = build_session("c1", skills, k=3)
        first = session.advance_round()
        second = session.advance_round()
        assert first["round"] == 0 and second["round"] == 1
        members = sorted(m for group in first["groups"] for m in group)
        assert members == list(range(12))

    def test_describe_shapes(self, skills):
        session = build_session("c1", skills, k=3, record_history=True)
        session.advance_round()
        payload = session.describe(include_history=True)
        assert payload["cohort"] == "c1"
        assert payload["n"] == 12 and payload["k"] == 3
        assert payload["rounds"] == 1
        assert len(payload["skills"]) == 12
        assert len(payload["skill_history"]) == 2

    def test_bad_propose_shape_rejected(self, skills):
        session = build_session("c1", skills, k=3)
        from repro.core.local import dygroups_star_local

        with pytest.raises(ValueError, match="k=2"):
            session.advance_round(lambda s, k, rng: dygroups_star_local(s, 2))

    def test_caller_skills_are_not_mutated(self, skills):
        before = skills.copy()
        session = build_session("c1", skills, k=3)
        session.advance_round()
        assert np.array_equal(skills, before)
        assert not np.array_equal(session.skills, before)

    def test_generator_is_built_at_the_first_round(self, skills):
        # An idle cohort (a condensed one that never plays) holds no generator.
        session = build_session("c1", skills, k=3, seed=11)
        assert session._rng is None
        session.advance_round()
        assert session._rng is not None


class TestSessionStore:
    def test_add_get_delete_roundtrip(self, skills):
        store = SessionStore(ttl_seconds=10.0)
        session = store.add(lambda sid: build_session(sid, skills))
        assert store.get(session.id) is session
        assert len(store) == 1
        store.delete(session.id)
        with pytest.raises(CohortNotFound):
            store.get(session.id)

    def test_ids_are_unique_and_ordered(self, skills):
        store = SessionStore()
        ids = [store.add(lambda sid: build_session(sid, skills)).id for _ in range(3)]
        assert len(set(ids)) == 3
        assert store.ids() == sorted(ids)

    def test_ttl_eviction_yields_410(self, skills):
        clock = FakeClock()
        evicted = []
        store = SessionStore(ttl_seconds=5.0, clock=clock, on_evict=evicted.append)
        session = store.add(lambda sid: build_session(sid, skills))
        clock.now = 6.0
        with pytest.raises(SessionExpired):
            store.get(session.id)
        assert [s.id for s in evicted] == [session.id]

    def test_get_refreshes_ttl(self, skills):
        clock = FakeClock()
        store = SessionStore(ttl_seconds=5.0, clock=clock)
        session = store.add(lambda sid: build_session(sid, skills))
        clock.now = 4.0
        store.get(session.id)  # touch
        clock.now = 8.0  # would be expired without the touch
        assert store.get(session.id) is session

    def test_touched_cohort_outlives_later_ones(self, skills):
        clock = FakeClock()
        evicted = []
        store = SessionStore(ttl_seconds=5.0, clock=clock, on_evict=evicted.append)
        created = []
        for now in (0.0, 0.5, 1.0):
            clock.now = now
            created.append(store.add(lambda sid: build_session(sid, skills)).id)
        clock.now = 2.0
        store.get(created[0])  # the oldest cohort now expires last
        clock.now = 6.2
        assert store.evict_expired() == created[1:]
        assert [s.id for s in evicted] == created[1:]
        assert store.ids() == created[:1]

    def test_capacity_bound(self, skills):
        store = SessionStore(max_sessions=2)
        store.add(lambda sid: build_session(sid, skills))
        store.add(lambda sid: build_session(sid, skills))
        with pytest.raises(CapacityExhausted):
            store.add(lambda sid: build_session(sid, skills))

    def test_eviction_frees_capacity(self, skills):
        clock = FakeClock()
        store = SessionStore(ttl_seconds=5.0, max_sessions=1, clock=clock)
        store.add(lambda sid: build_session(sid, skills))
        clock.now = 6.0
        # The expired cohort is swept on admission, freeing the slot.
        assert store.add(lambda sid: build_session(sid, skills)) is not None

    def test_unknown_id_is_404_not_410(self, skills):
        store = SessionStore()
        with pytest.raises(CohortNotFound):
            store.get("c999999")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SessionStore(ttl_seconds=0.0)
        with pytest.raises(ValueError):
            SessionStore(max_sessions=0)
