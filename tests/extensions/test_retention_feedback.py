"""Unit tests for the retention-feedback extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amt.retention import RetentionModel
from repro.core.dygroups import DyGroupsStar
from repro.extensions.retention_feedback import simulate_with_retention
from repro.registry import build_policy

from tests.conftest import random_positive_skills


class TestSimulateWithRetention:
    def test_basic_run(self, rng):
        skills = random_positive_skills(40, rng)
        result = simulate_with_retention(
            DyGroupsStar(), skills, k=4, alpha=5, rate=0.5, seed=0
        )
        assert result.policy_name == "dygroups-star"
        assert len(result.round_gains) == 5
        assert len(result.retention) == 6
        assert result.retention[0] == 1.0
        assert 0.0 <= result.final_retention <= 1.0

    def test_retention_monotone_decreasing(self, rng):
        skills = random_positive_skills(40, rng)
        result = simulate_with_retention(
            DyGroupsStar(), skills, k=4, alpha=6, rate=0.5, seed=1
        )
        assert all(a >= b for a, b in zip(result.retention, result.retention[1:]))

    def test_skills_never_decrease(self, rng):
        skills = random_positive_skills(40, rng)
        result = simulate_with_retention(
            DyGroupsStar(), skills, k=4, alpha=5, rate=0.5, seed=0
        )
        assert np.all(result.final_skills >= skills - 1e-12)

    def test_total_gain_matches_trajectory(self, rng):
        skills = random_positive_skills(40, rng)
        result = simulate_with_retention(
            DyGroupsStar(), skills, k=4, alpha=5, rate=0.5, seed=0
        )
        assert result.total_gain == pytest.approx(float(np.sum(result.final_skills - skills)))

    def test_everyone_quits_stops_learning(self, rng):
        # A retention model with hugely negative base logit empties the
        # population after round 1; later rounds contribute zero gain.
        skills = random_positive_skills(40, rng)
        brutal = RetentionModel(base_logit=-30.0, sensitivity=0.0)
        result = simulate_with_retention(
            DyGroupsStar(), skills, k=4, alpha=4, rate=0.5, retention=brutal, seed=0
        )
        assert result.retention[1] == 0.0
        assert result.rounds_played == 1
        assert all(g == 0.0 for g in result.round_gains[1:])

    def test_perfect_retention_matches_plain_simulation(self, rng):
        from repro.core.simulation import simulate

        skills = random_positive_skills(40, rng)
        sticky = RetentionModel(base_logit=50.0, sensitivity=0.0)
        with_retention = simulate_with_retention(
            DyGroupsStar(), skills, k=4, alpha=5, rate=0.5, retention=sticky, seed=0
        )
        plain = simulate(DyGroupsStar(), skills, k=4, alpha=5, mode="star", rate=0.5, seed=0)
        assert with_retention.final_retention == 1.0
        assert with_retention.total_gain == pytest.approx(plain.total_gain)

    def test_required_mode_enforced(self, rng):
        skills = random_positive_skills(24, rng)
        lpa = build_policy("lpa:max_evals=10", mode="clique", rate=0.5)
        with pytest.raises(ValueError, match="optimizes for mode"):
            simulate_with_retention(lpa, skills, k=4, alpha=2, rate=0.5, mode="star", seed=0)

    def test_rng_and_seed_mutually_exclusive(self, rng):
        skills = random_positive_skills(24, rng)
        with pytest.raises(ValueError, match="at most one"):
            simulate_with_retention(
                DyGroupsStar(),
                skills,
                k=4,
                alpha=2,
                rate=0.5,
                seed=0,
                rng=np.random.default_rng(1),
            )

    def test_reproducible(self, rng):
        skills = random_positive_skills(40, rng)
        a = simulate_with_retention(DyGroupsStar(), skills, k=4, alpha=4, rate=0.5, seed=3)
        b = simulate_with_retention(DyGroupsStar(), skills, k=4, alpha=4, rate=0.5, seed=3)
        assert a.retention == b.retention
        np.testing.assert_array_equal(a.final_skills, b.final_skills)

    def test_dygroups_welfare_at_least_random_on_average(self, rng):
        skills = random_positive_skills(60, rng)
        dy = np.mean(
            [
                simulate_with_retention(
                    DyGroupsStar(), skills, k=4, alpha=4, rate=0.5, seed=s
                ).total_gain
                for s in range(6)
            ]
        )
        rnd = np.mean(
            [
                simulate_with_retention(
                    build_policy("random"), skills, k=4, alpha=4, rate=0.5, seed=s
                ).total_gain
                for s in range(6)
            ]
        )
        assert dy >= rnd * 0.95
