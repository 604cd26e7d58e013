"""Unit tests for the LPA (local search) baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines._round_gain import clique_gain_sorted, sorted_desc, star_gain_sorted
from repro.baselines.lpa import MAX_EVALS, LpaGrouping
from repro.core.gain_functions import LinearGain
from repro.core.grouping import Group
from repro.core.interactions import Clique, Star
from repro.core.local import dygroups_star_local
from repro.core.simulation import simulate

from tests.conftest import random_grouping, random_positive_skills


class TestRoundGainHelpers:
    def test_star_gain_matches_mode(self, rng):
        skills = random_positive_skills(8, rng)
        values = sorted_desc(skills)
        expected = Star().group_gain(skills, Group(range(8)), LinearGain(0.5))
        assert star_gain_sorted(values, 0.5) == pytest.approx(expected)

    def test_clique_gain_matches_mode(self, rng):
        skills = random_positive_skills(8, rng)
        values = sorted_desc(skills)
        expected = Clique().group_gain(skills, Group(range(8)), LinearGain(0.5))
        assert clique_gain_sorted(values, 0.5) == pytest.approx(expected)

    def test_clique_gain_single_member_zero(self):
        assert clique_gain_sorted(np.array([3.0]), 0.5) == 0.0

    def test_clique_gain_with_ties(self):
        values = np.array([2.0, 2.0, 1.0])
        # Rank divisor (Equation 2): the second 2.0 gains 0/1; the 1.0
        # member gains (r·1 + r·1)/2 = 0.5.
        assert clique_gain_sorted(values, 0.5) == pytest.approx(0.5)

    def test_clique_gain_rank_divisor(self):
        values = np.array([2.0, 1.0, 1.0])
        # rank 2 (1.0): r·1/1 = 0.5; rank 3 (1.0): (r·1 + 0)/2 = 0.25.
        assert clique_gain_sorted(values, 0.5) == pytest.approx(0.75)


class TestLpaGrouping:
    def test_valid_partition(self, rng):
        skills = random_positive_skills(12, rng)
        policy = LpaGrouping("star", 0.5, max_evals=200)
        grouping = policy.propose(skills, 3, rng)
        assert grouping.n == 12
        assert grouping.k == 3

    def test_reaches_round_optimal_gain_star(self, rng):
        # Star round gain depends only on the set of teachers; the local
        # search should reach the optimum (top-k in distinct groups) on a
        # small instance.
        skills = random_positive_skills(12, rng)
        policy = LpaGrouping("star", 0.5, max_evals=5000)
        grouping = policy.propose(skills, 3, rng)
        gain = Star().round_gain(skills, grouping, LinearGain(0.5))
        optimal = Star().round_gain(skills, dygroups_star_local(skills, 3), LinearGain(0.5))
        assert gain == pytest.approx(optimal, rel=1e-6)

    def test_improves_over_random_start_clique(self, rng):
        skills = random_positive_skills(20, rng)
        policy = LpaGrouping("clique", 0.5, max_evals=3000)
        grouping = policy.propose(skills, 4, rng)
        mode = Clique()
        gain = mode.round_gain(skills, grouping, LinearGain(0.5))
        random_gains = [
            mode.round_gain(skills, random_grouping(20, 4, rng), LinearGain(0.5))
            for _ in range(10)
        ]
        assert gain >= np.mean(random_gains)

    def test_required_mode_enforced_by_engine(self, rng):
        skills = random_positive_skills(12, rng)
        policy = LpaGrouping("clique", 0.5, max_evals=100)
        with pytest.raises(ValueError, match="optimizes for mode"):
            simulate(policy, skills, k=3, alpha=1, mode="star", rate=0.5)

    def test_runs_under_matching_mode(self, rng):
        skills = random_positive_skills(12, rng)
        policy = LpaGrouping("clique", 0.5, max_evals=100)
        result = simulate(policy, skills, k=3, alpha=2, mode="clique", rate=0.5, seed=0)
        assert result.total_gain > 0.0

    def test_budget_parameters_validated(self):
        with pytest.raises(ValueError):
            LpaGrouping("star", 0.5, max_evals=0)
        with pytest.raises(ValueError, match="max_evals must be in"):
            LpaGrouping("star", 0.5, max_evals=MAX_EVALS + 1)
        with pytest.raises(ValueError, match="max_evals must be in"):
            LpaGrouping("star", 0.5, max_evals=10**30)
        with pytest.raises(ValueError):
            LpaGrouping("star", 0.5, patience=-1)
        with pytest.raises(ValueError):
            LpaGrouping("star", 1.5)

    def test_repr(self):
        text = repr(LpaGrouping("star", 0.5, max_evals=10))
        assert "star" in text and "10" in text

    def test_name(self):
        assert LpaGrouping("star", 0.5).name == "lpa"
