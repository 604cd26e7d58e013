"""Unit tests for the GroupingService facade (validation, routing, metrics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulation import simulate
from repro.obs import runtime
from repro.registry import build_policy
from repro.serve.config import ServeConfig
from repro.serve.errors import (
    CapacityExhausted,
    CohortNotFound,
    InvalidRequest,
    ServiceClosed,
    SessionExpired,
)
from repro.serve.service import GroupingService


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def payload(skills, k=3, **extra):
    body = {"skills": [float(s) for s in skills], "k": k}
    body.update(extra)
    return body


@pytest.fixture
def skills() -> list:
    return list(np.random.default_rng(7).uniform(1.0, 9.0, size=12))


@pytest.fixture
def service():
    with GroupingService(ServeConfig(cache_size=64)) as svc:
        yield svc


class TestCreateCohort:
    def test_create_and_describe(self, service, skills):
        info = service.create_cohort(payload(skills, mode="clique", rate=0.3, seed=5))
        assert info["cohort"].startswith("c")
        assert info["mode"] == "clique" and info["rate"] == 0.3 and info["seed"] == 5
        assert service.get_cohort(info["cohort"])["rounds"] == 0

    @pytest.mark.parametrize("body,fragment", [
        ({"k": 3}, "skills"),
        ({"skills": [1.0, 2.0]}, "k"),
        ({"skills": [1.0, 2.0, 3.0], "k": 2}, "divide"),
        ({"skills": [1.0, -2.0], "k": 1}, "positive"),
        ({"skills": [1.0, 2.0], "k": 1, "mode": "mesh"}, "mode"),
        ({"skills": [1.0, 2.0], "k": 1, "rate": 1.5}, "rate"),
        ({"skills": [1.0, 2.0], "k": 1, "seed": "abc"}, "seed"),
        ({"skills": [1.0, 2.0], "k": 1, "policy": "nope"}, "policy"),
        ({"skills": [1.0, 2.0], "k": 1, "bogus": 1}, "unknown"),
        ({"skills": [1.0, float("nan")], "k": 1}, "finite"),
        ({"skills": [1.0, float("inf")], "k": 1}, "finite"),
        ({"skills": [1.0, float("-inf")], "k": 1}, "finite"),
        ({"skills": [1.0, -0.0], "k": 1}, "positive"),
        ({"skills": [1.0, 0], "k": 1}, "positive"),
        ({"skills": [1.0, 2.0], "k": 0}, "k must be positive"),
        ({"skills": [1.0, 2.0], "k": True}, "k must be an int"),
        ({"skills": [1.0, 2.0], "k": 2.0}, "k must be an int"),
        ({"skills": "1.0, 2.0", "k": 1}, "sequence of numbers"),
        ({"skills": [[1.0, 2.0], [3.0, 4.0]], "k": 1}, "one-dimensional"),
        ({"skills": [1.0, 2.0], "k": 1, "rate": float("nan")}, "rate"),
        ({"skills": [1.0, 2.0], "k": 1, "policy": "percentile:p=nan"}, r"p must lie in \[0, 1\]"),
        ({"skills": [10**400, 2.0], "k": 1}, "finite"),
        ({"skills": [1.0, 2.0], "k": 1, "rate": 10**400}, "rate"),
        ({"skills": [1.0, 2.0], "k": 1, "seed": -1}, "seed must be non-negative"),
        ({"skills": [1.0, 2.0], "k": 1, "policy": "annealing:steps=60001"}, "steps"),
        ({"skills": [1.0, 2.0], "k": 1, "policy": "lpa:max_evals=100001"}, "max_evals"),
    ])
    def test_validation_failures_are_400(self, service, body, fragment):
        with pytest.raises(InvalidRequest, match=fragment):
            service.create_cohort(body)

    def test_non_mapping_payload_rejected(self, service):
        with pytest.raises(InvalidRequest, match="JSON object"):
            service.create_cohort([1, 2, 3])

    def test_capacity_exhausted(self, skills):
        with GroupingService(ServeConfig(cache_size=0, max_cohorts=1)) as svc:
            svc.create_cohort(payload(skills))
            with pytest.raises(CapacityExhausted):
                svc.create_cohort(payload(skills))


class TestAdvance:
    @pytest.mark.parametrize("mode", ["star", "clique"])
    @pytest.mark.parametrize("cache_size", [64, 0])
    def test_bit_identical_to_offline_simulate(self, skills, mode, cache_size):
        """Rounds proposed by the memo and by the policy both reproduce simulate()."""
        with GroupingService(ServeConfig(cache_size=cache_size)) as svc:
            info = svc.create_cohort(payload(skills, mode=mode, seed=13))
            result = svc.advance_rounds(info["cohort"], 6)
            final = np.array(svc.get_cohort(info["cohort"])["skills"])
        reference = simulate(
            build_policy("dygroups", mode=mode, rate=0.5),
            np.asarray(skills), k=3, alpha=6, mode=mode, rate=0.5, seed=13,
        )
        assert np.array_equal(final, reference.final_skills)
        assert result["total_gain"] == float(np.sum(reference.round_gains))

    def test_stochastic_policy_runs_inline_and_reproduces(self, skills):
        with GroupingService(ServeConfig()) as svc:
            info = svc.create_cohort(payload(skills, policy="random", seed=3))
            svc.advance_rounds(info["cohort"], 4)
            final = np.array(svc.get_cohort(info["cohort"])["skills"])
        reference = simulate(
            build_policy("random", mode="star", rate=0.5),
            np.asarray(skills), k=3, alpha=4, mode="star", rate=0.5, seed=3,
        )
        assert np.array_equal(final, reference.final_skills)

    def test_round_indices_accumulate(self, service, skills):
        cohort = service.create_cohort(payload(skills))["cohort"]
        first = service.advance_rounds(cohort, 2)
        second = service.advance_rounds(cohort, 3)
        assert [r["round"] for r in first["played"]] == [0, 1]
        assert [r["round"] for r in second["played"]] == [2, 3, 4]
        assert second["rounds"] == 5

    def test_invalid_rounds_rejected(self, service, skills):
        cohort = service.create_cohort(payload(skills))["cohort"]
        for rounds in (0, -1, True, 2.0, "3", "three"):
            with pytest.raises(InvalidRequest, match="rounds"):
                service.advance_rounds(cohort, rounds)
        assert service.get_cohort(cohort)["rounds"] == 0

    def test_rounds_times_n_is_bounded(self, service):
        from repro.serve.service import MAX_MEMBER_ROUNDS

        n = 1024
        cohort = service.create_cohort(
            {"skills": np.random.default_rng(3).uniform(1.0, 9.0, size=n).tolist(), "k": 2}
        )["cohort"]
        with pytest.raises(InvalidRequest, match="member-rounds"):
            service.advance_rounds(cohort, MAX_MEMBER_ROUNDS // n + 1)
        assert service.get_cohort(cohort)["rounds"] == 0
        assert service.advance_rounds(cohort, 2)["rounds"] == 2

    def test_unknown_cohort_404(self, service):
        with pytest.raises(CohortNotFound):
            service.advance_rounds("c999999", 1)

    def test_expired_cohort_410(self, skills):
        clock = FakeClock()
        with GroupingService(ServeConfig(session_ttl=5.0), clock=clock) as svc:
            cohort = svc.create_cohort(payload(skills))["cohort"]
            clock.now = 6.0
            with pytest.raises(SessionExpired):
                svc.advance_rounds(cohort, 1)


class TestIntrospection:
    def test_healthz_and_metrics(self, service, skills):
        cohort = service.create_cohort(payload(skills))["cohort"]
        service.advance_rounds(cohort, 2)
        health = service.healthz()
        assert health["status"] == "ok" and health["cohorts"] == 1
        assert health["cache"]["max_entries"] == 64
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["serve.cohorts.created"]["value"] == 1
        assert snapshot["counters"]["serve.rounds.advanced"]["value"] == 2

    def test_cache_hits_across_identical_cohorts(self, service, skills):
        a = service.create_cohort(payload(skills, seed=1))["cohort"]
        b = service.create_cohort(payload(skills, seed=1))["cohort"]
        service.advance_rounds(a, 3)
        service.advance_rounds(b, 3)
        stats = service.cache.stats()
        # Cohort b replays cohort a's trajectory bit for bit: all hits.
        assert stats["hits"] >= 3
        assert (
            np.array(service.get_cohort(a)["skills"])
            == np.array(service.get_cohort(b)["skills"])
        ).all()

    def test_delete_returns_summary_then_404(self, service, skills):
        cohort = service.create_cohort(payload(skills))["cohort"]
        summary = service.delete_cohort(cohort)
        assert summary["cohort"] == cohort
        with pytest.raises(CohortNotFound):
            service.get_cohort(cohort)

    def test_eviction_emits_counter(self, skills):
        clock = FakeClock()
        with GroupingService(ServeConfig(session_ttl=5.0), clock=clock) as svc:
            svc.create_cohort(payload(skills))
            clock.now = 6.0
            svc.store.evict_expired()
        snapshot = runtime.metrics_registry().snapshot()
        assert snapshot["counters"]["serve.cohorts.evicted"]["value"] == 1

    def test_sessions_active_gauge_tracks_lifecycle(self, service, skills):
        gauge = runtime.metrics_registry().gauge("serve.sessions.active")
        a = service.create_cohort(payload(skills))["cohort"]
        b = service.create_cohort(payload(skills))["cohort"]
        assert gauge.value == 2
        service.delete_cohort(a)
        assert gauge.value == 1
        service.delete_cohort(b)
        assert gauge.value == 0
        assert gauge.max == 2

    def test_sessions_active_gauge_drops_on_eviction(self, skills):
        clock = FakeClock()
        with GroupingService(ServeConfig(session_ttl=5.0), clock=clock) as svc:
            svc.create_cohort(payload(skills))
            clock.now = 6.0
            svc.store.evict_expired()
            assert runtime.metrics_registry().gauge("serve.sessions.active").value == 0


class TestSLOVerdicts:
    def test_snapshot_has_no_slo_block_by_default(self, service, skills):
        assert "slo" not in service.metrics_snapshot()

    def test_snapshot_carries_slo_verdicts_when_configured(self, skills):
        config = ServeConfig(slo={"latency_p95_ms": 60_000.0, "max_error_rate": 0.5})
        with GroupingService(config) as svc:
            # No HTTP traffic flowed, so the latency series is absent and
            # its verdict must FAIL; flip the limit, not the traffic.
            block = svc.metrics_snapshot()["slo"]
            assert block["verdict"] == "fail"
            targets = {entry["target"]: entry for entry in block["targets"]}
            assert targets["latency_p95_ms"]["observed"] is None
            assert not targets["latency_p95_ms"]["passed"]

    def test_snapshot_slo_passes_with_observed_traffic(self, skills):
        config = ServeConfig(slo={"latency_p95_ms": 60_000.0})
        with GroupingService(config) as svc:
            registry = runtime.metrics_registry()
            registry.timer("serve.http.request_seconds").observe(0.01)
            registry.counter("serve.http.requests").inc()
            assert svc.metrics_snapshot()["slo"]["verdict"] == "pass"

    def test_invalid_slo_target_rejected_at_startup(self):
        with pytest.raises(ValueError, match="unknown SLO fields"):
            GroupingService(ServeConfig(slo={"latency_p42_ms": 10.0}))

    def test_metrics_prometheus_includes_slo_gauges(self, skills):
        config = ServeConfig(slo={"max_error_rate": 1.0})
        with GroupingService(config) as svc:
            registry = runtime.metrics_registry()
            registry.counter("serve.http.requests").inc()
            text = svc.metrics_prometheus()
        assert "repro_slo_passed 1" in text.splitlines()
        assert 'repro_slo_target_passed{target="max_error_rate"} 1' in text.splitlines()

    def test_metrics_prometheus_without_slo_has_no_verdict_lines(self, service, skills):
        assert "repro_slo_passed" not in service.metrics_prometheus()


class TestLifecycle:
    def test_closed_service_refuses_work(self, skills):
        svc = GroupingService(ServeConfig())
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.create_cohort(payload(skills))
        assert svc.healthz()["status"] == "closed"
        svc.close()  # idempotent
