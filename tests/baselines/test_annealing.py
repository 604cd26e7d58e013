"""Unit tests for the simulated-annealing baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.annealing import MAX_STEPS, AnnealingGrouping
from repro.core.gain_functions import LinearGain
from repro.core.interactions import Clique, Star
from repro.core.local import dygroups_clique_local, dygroups_star_local
from repro.core.simulation import simulate

from tests.conftest import random_grouping, random_positive_skills


class TestAnnealingGrouping:
    def test_valid_partition(self, rng):
        skills = random_positive_skills(12, rng)
        grouping = AnnealingGrouping("star", 0.5, steps=300).propose(skills, 3, rng)
        assert grouping.n == 12
        assert grouping.k == 3

    def test_near_optimal_star_round_gain(self, rng):
        skills = random_positive_skills(12, rng)
        grouping = AnnealingGrouping("star", 0.5, steps=5000).propose(skills, 3, rng)
        gain = Star().round_gain(skills, grouping, LinearGain(0.5))
        optimal = Star().round_gain(skills, dygroups_star_local(skills, 3), LinearGain(0.5))
        assert gain >= 0.97 * optimal

    def test_beats_average_random_grouping_clique(self, rng):
        skills = random_positive_skills(20, rng)
        grouping = AnnealingGrouping("clique", 0.5, steps=4000).propose(skills, 4, rng)
        mode = Clique()
        gain = mode.round_gain(skills, grouping, LinearGain(0.5))
        random_gains = [
            mode.round_gain(skills, random_grouping(20, 4, rng), LinearGain(0.5))
            for _ in range(10)
        ]
        assert gain > float(np.mean(random_gains))

    def test_never_worse_than_its_snapshot(self, rng):
        # The returned grouping is the best-seen snapshot, so its gain is
        # at least the initial random grouping's (with the same stream,
        # checked statistically over a few seeds).
        skills = random_positive_skills(12, rng)
        policy = AnnealingGrouping("star", 0.5, steps=500)
        mode = Star()
        for seed in range(3):
            grouping = policy.propose(skills, 3, np.random.default_rng(seed))
            gain = mode.round_gain(skills, grouping, LinearGain(0.5))
            baseline = mode.round_gain(
                skills, random_grouping(12, 3, np.random.default_rng(seed)), LinearGain(0.5)
            )
            assert gain >= baseline - 1e-9

    def test_required_mode_enforced(self, rng):
        skills = random_positive_skills(12, rng)
        policy = AnnealingGrouping("clique", 0.5, steps=10)
        with pytest.raises(ValueError, match="optimizes for mode"):
            simulate(policy, skills, k=3, alpha=1, mode="star", rate=0.5)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            AnnealingGrouping("star", 0.5, steps=0)
        with pytest.raises(ValueError, match="steps must be in"):
            AnnealingGrouping("star", 0.5, steps=MAX_STEPS + 1)
        with pytest.raises(ValueError, match="steps must be in"):
            AnnealingGrouping("star", 0.5, steps=10**30)
        with pytest.raises(ValueError):
            AnnealingGrouping("star", 0.5, initial_temperature=0.0)
        with pytest.raises(ValueError):
            AnnealingGrouping("star", 0.5, cooling=1.0)

    def test_registered(self, rng):
        from repro.registry import build_policy

        skills = random_positive_skills(12, rng)
        policy = build_policy("annealing:steps=100", mode="star", rate=0.5)
        result = simulate(policy, skills, k=3, alpha=2, mode="star", rate=0.5, seed=0)
        assert result.total_gain > 0

    def test_repr(self):
        assert "annealing" in AnnealingGrouping("star", 0.5).name
