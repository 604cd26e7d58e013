"""Matchmaker condensation semantics over a real grouping service."""

from __future__ import annotations

import pytest

from repro.obs import runtime as obs_runtime
from repro.serve.config import ServeConfig
from repro.serve.errors import (
    CapacityExhausted,
    DuplicateJoin,
    InvalidRequest,
    ServiceClosed,
)
from repro.serve.service import GroupingService


def make_service(clock=None, *, specs, tick_interval=None, **config_fields):
    kwargs = {} if clock is None else {"clock": clock}
    return GroupingService(
        ServeConfig(
            matchmaking={"specs": specs, "tick_interval": tick_interval},
            **config_fields,
        ),
        **kwargs,
    )


SPEC4 = {"n": 4, "k": 2, "deadline_seconds": 10.0}


class TestFillCondensation:
    def test_nth_join_condenses_synchronously(self, clock):
        service = make_service(clock, specs=[SPEC4])
        try:
            for skill in (3.0, 1.0, 4.0):
                assert service.join({"skill": skill})["status"] == "waiting"
            final = service.join({"skill": 1.5})
            assert final["status"] == "matched"
            assert final["cohort"] == "c000001"
            snapshot = service.matchmaking_snapshot()
            assert snapshot["waiting"] == 0
            assert snapshot["condensed"] == 1
            assert snapshot["specs"]["default"]["cohorts"] == ["c000001"]
        finally:
            service.close()

    def test_members_ordered_by_skill_then_arrival(self, clock):
        service = make_service(clock, specs=[SPEC4])
        try:
            for name, skill in (("a", 3.0), ("b", 1.0), ("c", 4.0), ("d", 3.0)):
                service.join({"skill": skill, "participant": name})
            cohort = service.get_cohort("c000001")
            # Descending skill; the tie between a and d breaks by arrival.
            assert cohort["skills"] == [4.0, 3.0, 3.0, 1.0]
            assert service.participant_status("c")["member"] == 0
            assert service.participant_status("a")["member"] == 1
            assert service.participant_status("d")["member"] == 2
            assert service.participant_status("b")["member"] == 3
        finally:
            service.close()

    def test_ith_cohort_uses_seed_plus_i(self, clock):
        service = make_service(clock, specs=[{**SPEC4, "seed": 10}])
        try:
            for wave in range(2):
                for i in range(4):
                    service.join({"skill": float(i + 1)})
            assert service.get_cohort("c000001")["seed"] == 10
            assert service.get_cohort("c000002")["seed"] == 11
        finally:
            service.close()


class TestDeadlines:
    def test_deadline_condenses_viable_multiple_of_k(self, clock):
        service = make_service(clock, specs=[{"n": 6, "k": 2, "deadline_seconds": 5.0}])
        try:
            for skill in (3.0, 1.0, 4.0, 2.0, 5.0):
                service.join({"skill": skill})
            assert service.matchmaker.tick() == []  # deadline not due yet
            clock.advance(5.1)
            condensed = service.matchmaker.tick()
            assert len(condensed) == 1
            # viable = (min(5, 6) // 2) * 2 = 4; one participant left over.
            assert condensed[0]["size"] == 4
            assert condensed[0]["trigger"] == "deadline"
            assert service.matchmaking_snapshot()["waiting"] == 1
        finally:
            service.close()

    def test_leftovers_rearm_a_fresh_deadline(self, clock):
        service = make_service(clock, specs=[{"n": 6, "k": 2, "deadline_seconds": 5.0}])
        try:
            for skill in (3.0, 1.0, 4.0, 2.0, 5.0):
                service.join({"skill": skill})
            clock.advance(5.1)
            service.matchmaker.tick()
            snapshot = service.matchmaking_snapshot()
            deadline_in = snapshot["specs"]["default"]["deadline_in_seconds"]
            assert deadline_in == pytest.approx(5.0)
        finally:
            service.close()

    def test_wave_below_min_fill_expires_whole(self, clock):
        service = make_service(
            clock, specs=[{"n": 8, "k": 4, "deadline_seconds": 5.0}]
        )
        try:
            service.join({"skill": 2.0, "participant": "a"})
            service.join({"skill": 3.0, "participant": "b"})
            clock.advance(5.1)
            assert service.matchmaker.tick() == []
            assert service.participant_status("a")["status"] == "expired"
            assert service.participant_status("b")["status"] == "expired"
            assert service.matchmaking_snapshot()["waiting"] == 0
        finally:
            service.close()

    def test_min_fill_floor_is_respected(self, clock):
        service = make_service(
            clock,
            specs=[{"n": 8, "k": 2, "min_fill": 6, "deadline_seconds": 5.0}],
        )
        try:
            for i in range(4):  # 4 pending < min_fill=6
                service.join({"skill": float(i + 1), "participant": f"p{i}"})
            clock.advance(5.1)
            assert service.matchmaker.tick() == []
            assert service.participant_status("p0")["status"] == "expired"
        finally:
            service.close()


class TestRankWindow:
    def test_window_centres_on_longest_waiting(self, clock):
        service = make_service(
            clock,
            specs=[{"n": 8, "k": 2, "max_fill": 4, "deadline_seconds": 5.0}],
        )
        try:
            # The oldest arrival has a middling skill; the window around
            # its rank must pick its skill neighbours, not a prefix.
            service.join({"skill": 5.0, "participant": "anchor"})
            for name, skill in (
                ("hi1", 9.0),
                ("hi2", 8.0),
                ("mid1", 6.0),
                ("mid2", 4.0),
                ("lo1", 1.0),
            ):
                service.join({"skill": skill, "participant": name})
            clock.advance(5.1)
            condensed = service.matchmaker.tick()
            # Sorted pool: hi1 hi2 mid1 anchor mid2 lo1 → anchor rank 3;
            # window of 4 centred there covers ranks 2..5... clamped to
            # start=min(max(3-1,0), 6-4)=2 → mid1 anchor mid2 lo1.
            assert condensed[0]["participants"] == ["mid1", "anchor", "mid2", "lo1"]
            assert service.participant_status("hi1")["status"] == "waiting"
        finally:
            service.close()


class TestQuotaAndCapacity:
    def test_quota_rejects_joins_after_max_cohorts(self, clock):
        service = make_service(clock, specs=[{**SPEC4, "max_cohorts": 1}])
        try:
            for i in range(4):
                service.join({"skill": float(i + 1)})
            with pytest.raises(CapacityExhausted, match="quota"):
                service.join({"skill": 2.0})
        finally:
            service.close()

    def test_full_store_keeps_wave_pending_until_retry(self, clock):
        # Session store bounded to one live cohort: the second wave's
        # fill condensation hits 429 internally, stays pending, and the
        # deadline tick retries once capacity frees up.
        service = make_service(clock, specs=[SPEC4], max_cohorts=1)
        try:
            for i in range(4):
                service.join({"skill": float(i + 1)})
            for i in range(4):
                joined = service.join({"skill": float(i + 1), "participant": f"w2-{i}"})
            assert joined["status"] == "waiting"
            assert service.matchmaking_snapshot()["waiting"] == 4
            service.delete_cohort("c000001")
            clock.advance(10.1)
            condensed = service.matchmaker.tick()
            assert len(condensed) == 1
            assert service.participant_status("w2-0")["status"] == "matched"
        finally:
            service.close()


class TestValidationAndLifecycle:
    def test_join_validates_skill(self, clock):
        service = make_service(clock, specs=[SPEC4])
        try:
            for skill in (-1.0, float("inf"), float("nan"), 10**400):
                with pytest.raises(InvalidRequest, match="skill"):
                    service.join({"skill": skill})
            assert service.matchmaking_snapshot()["waiting"] == 0
            with pytest.raises(InvalidRequest, match="skill"):
                service.join({})
            with pytest.raises(InvalidRequest, match="unknown fields"):
                service.join({"skill": 1.0, "rank": 3})
        finally:
            service.close()

    def test_unknown_spec_rejected(self, clock):
        service = make_service(clock, specs=[SPEC4])
        try:
            with pytest.raises(InvalidRequest, match="unknown group spec"):
                service.join({"skill": 1.0, "spec": "elite"})
        finally:
            service.close()

    def test_sole_non_default_spec_is_implicit(self, clock):
        service = make_service(clock, specs=[{**SPEC4, "name": "novice"}])
        try:
            assert service.join({"skill": 1.0})["spec"] == "novice"
        finally:
            service.close()

    def test_ambiguous_spec_requires_explicit_choice(self, clock):
        service = make_service(
            clock,
            specs=[{**SPEC4, "name": "novice"}, {**SPEC4, "name": "expert"}],
        )
        try:
            with pytest.raises(InvalidRequest, match="spec is required"):
                service.join({"skill": 1.0})
            assert service.join({"skill": 1.0, "spec": "expert"})["spec"] == "expert"
        finally:
            service.close()

    def test_duplicate_participant_rejected(self, clock):
        service = make_service(clock, specs=[SPEC4])
        try:
            service.join({"skill": 1.0, "participant": "alice"})
            with pytest.raises(DuplicateJoin):
                service.join({"skill": 2.0, "participant": "alice"})
        finally:
            service.close()

    def test_leave_drops_waiting_participant(self, clock):
        service = make_service(clock, specs=[SPEC4])
        try:
            service.join({"skill": 1.0, "participant": "alice"})
            payload = service.leave_queue("alice")
            assert payload["status"] == "left"
            assert service.matchmaking_snapshot()["waiting"] == 0
            # Idempotent: a second DELETE reports the final status.
            assert service.leave_queue("alice")["status"] == "left"
        finally:
            service.close()

    def test_closed_matchmaker_refuses_work(self, clock):
        service = make_service(clock, specs=[SPEC4])
        service.close()
        with pytest.raises(ServiceClosed):
            service.join({"skill": 1.0})

    def test_new_journal_events_are_registered(self):
        from repro.obs.journal import EVENTS

        for event in (
            "participant_join",
            "participant_leave",
            "participant_expire",
            "cohort_condense",
        ):
            assert event in EVENTS


class TestMetrics:
    def test_counters_and_gauges_track_the_stream(self, clock):
        service = make_service(clock, specs=[SPEC4])
        try:
            for i in range(5):
                service.join({"skill": float(i + 1)})
            service.leave_queue("p000005")
            snapshot = obs_runtime.metrics_registry().snapshot()
            counters = snapshot["counters"]
            assert counters["matchmaking.joins"]["value"] == 5
            assert counters["matchmaking.matched"]["value"] == 4
            assert counters["matchmaking.cohorts"]["value"] == 1
            assert counters["matchmaking.left"]["value"] == 1
            assert snapshot["gauges"]["matchmaking.queue_depth"]["value"] == 0
            match_hist = snapshot["histograms"]["matchmaking.time_to_match_seconds"]
            assert match_hist["count"] == 4
        finally:
            service.close()


class TestBackgroundCondenser:
    def test_tick_thread_flushes_a_deadline_wave(self):
        import time as _time

        service = make_service(
            specs=[{"n": 8, "k": 2, "deadline_seconds": 0.05}],
            tick_interval=0.01,
        )
        try:
            for name, skill in (("a", 2.0), ("b", 3.0), ("c", 1.0), ("d", 4.0)):
                service.join({"skill": skill, "participant": name})
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline:
                if service.participant_status("a")["status"] == "matched":
                    break
                _time.sleep(0.01)
            assert service.participant_status("a")["status"] == "matched"
            assert service.participant_status("d")["status"] == "matched"
        finally:
            service.close()
