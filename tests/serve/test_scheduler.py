"""Unit tests for the served round path (``BatchScheduler.step_rounds``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulation import simulate
from repro.obs import runtime
from repro.registry import build_policy
from repro.serve.config import ServeConfig
from repro.serve.errors import ServiceClosed
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import GroupingService


def _counter(name):
    return runtime.metrics_registry().counter(name).value


def _kernel_calls():
    return runtime.metrics_registry().timer("serve.scheduler.kernel_seconds").count


def _service_with_cohorts(count, *, n=12, k=3, mode="star", seed=11, policy="dygroups"):
    """A memo-less service holding ``count`` identically-seeded cohorts.

    Identical payloads mean identical trajectories, so any cohort doubles
    as the bit-identity reference for any other.
    """
    service = GroupingService(ServeConfig(cache_size=0))
    rng = np.random.default_rng(31)
    skills = rng.uniform(1.0, 9.0, size=n).tolist()
    ids = [
        service.create_cohort(
            {"skills": skills, "k": k, "mode": mode, "seed": seed, "policy": policy}
        )["cohort"]
        for _ in range(count)
    ]
    return service, [service.store.get(cid) for cid in ids]


class TestAdaptiveSteps:
    """The steps that remain: every one runs inline on the calling thread."""

    def test_lone_step_falls_through_inline(self):
        service, (subject, reference) = _service_with_cohorts(2)
        with service:
            calls = _kernel_calls()
            records = BatchScheduler().step_rounds(subject, 3)
            # One timed kernel stage per call, however many rounds it plays.
            assert _kernel_calls() - calls == 1
            expected = [reference.advance_round() for _ in range(3)]
            assert [r["round"] for r in records] == [0, 1, 2]
            assert [r["gain"] for r in records] == [r["gain"] for r in expected]
            assert [r["groups"] for r in records] == [r["groups"] for r in expected]

    def test_step_rounds_validation(self):
        service, (subject,) = _service_with_cohorts(1)
        with service:
            scheduler = BatchScheduler()
            with pytest.raises(ValueError, match="rounds"):
                scheduler.step_rounds(subject, 0)
            with pytest.raises(ValueError, match="rounds"):
                scheduler.step_rounds(subject, True)
            assert subject.rounds == 0


class TestLifecycle:
    def test_submit_after_close_is_503(self):
        service, (subject,) = _service_with_cohorts(1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.advance_rounds(subject.id, 1)


class TestRoundPath:
    @pytest.mark.parametrize("policy", ["dygroups", "random", "percentile", "kmeans"])
    def test_every_policy_advances_through_step_rounds(self, skills120, policy):
        with GroupingService(ServeConfig(cache_size=16)) as service:
            cohort = service.create_cohort(
                {"skills": skills120.tolist(), "k": 10, "policy": policy, "seed": 4}
            )["cohort"]
            calls = _kernel_calls()
            service.advance_rounds(cohort, 2)
            service.advance_rounds(cohort, 1)
            assert _kernel_calls() - calls == 2
            final = np.array(service.get_cohort(cohort)["skills"])
        reference = simulate(
            build_policy(policy, mode="star", rate=0.5),
            skills120, k=10, alpha=3, mode="star", rate=0.5, seed=4,
        )
        assert np.array_equal(final, reference.final_skills)

    def test_memo_proposes_only_for_dygroups_cohorts(self, skills120):
        with GroupingService(ServeConfig(cache_size=16)) as service:
            for policy, lookups in (("random", 0), ("static-dygroups", 0), ("dygroups", 3)):
                cohort = service.create_cohort(
                    {"skills": skills120.tolist(), "k": 10, "policy": policy}
                )["cohort"]
                before = _counter("serve.cache.hits") + _counter("serve.cache.misses")
                service.advance_rounds(cohort, 3)
                after = _counter("serve.cache.hits") + _counter("serve.cache.misses")
                assert after - before == lookups, policy

    @pytest.mark.parametrize(
        "policy,mode",
        [("dygroups-star", "clique"), ("dygroups-clique", "star"), ("dygroups", "clique")],
    )
    def test_memo_runs_the_policy_grouper_not_the_mode(self, skills120, policy, mode):
        """A ``dygroups-star`` cohort playing clique rounds is grouped by
        Algorithm 2 offline, so the memo must propose star groupings too."""
        with GroupingService(ServeConfig(cache_size=16)) as service:
            cohort = service.create_cohort(
                {"skills": skills120.tolist(), "k": 10, "policy": policy, "mode": mode, "seed": 2}
            )["cohort"]
            played = service.advance_rounds(cohort, 3)["played"]
            final = np.array(service.get_cohort(cohort)["skills"])
        reference = simulate(
            build_policy(policy, mode=mode, rate=0.5),
            skills120, k=10, alpha=3, mode=mode, rate=0.5, seed=2,
        )
        assert np.array_equal(final, reference.final_skills)
        assert [r["gain"] for r in played] == [float(g) for g in reference.round_gains]

    def test_submit_step_returns_a_resolved_future(self):
        service, (subject, reference) = _service_with_cohorts(2)
        with service:
            scheduler = BatchScheduler()
            future = scheduler.submit_step(subject, 2)
            assert future.done()
            expected = [reference.advance_round() for _ in range(2)]
            assert [r["gain"] for r in future.result()] == [r["gain"] for r in expected]
            failed = scheduler.submit_step(subject, 0)
            assert isinstance(failed.exception(), ValueError)
