"""Unit tests for building the paper's policies by name."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dygroups import DyGroupsClique, DyGroupsStar
from repro.core.simulation import simulate
from repro.registry import build_policy, policy_names

from tests.conftest import random_positive_skills

#: The paper's evaluation line-up (the registry without its extensions).
POLICY_NAMES = policy_names(include_extensions=False)

#: Inline search budgets that keep the search-based policies quick.
BUDGETS = {"lpa": "lpa:max_evals=100", "annealing": "annealing:steps=100"}


class TestMakePolicy:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_registered_name_constructs(self, name):
        policy = build_policy(name, mode="star", rate=0.5)
        assert policy.name

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_policy_simulates(self, name, rng):
        skills = random_positive_skills(12, rng)
        policy = build_policy(BUDGETS.get(name, name), mode="star", rate=0.5)
        result = simulate(policy, skills, k=3, alpha=2, mode="star", rate=0.5, seed=0)
        assert result.total_gain >= 0.0

    def test_dygroups_resolves_by_mode(self):
        assert isinstance(build_policy("dygroups", mode="star"), DyGroupsStar)
        assert isinstance(build_policy("dygroups", mode="clique"), DyGroupsClique)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            build_policy("does-not-exist")

    def test_percentile_p_forwarded(self):
        policy = build_policy("percentile:p=0.5")
        assert policy.p == 0.5

    def test_lpa_budget_forwarded(self, rng):
        policy = build_policy("lpa:max_evals=7", mode="clique", rate=0.3)
        assert "7" in repr(policy)

    def test_fresh_instance_each_call(self):
        assert build_policy("random") is not build_policy("random")
