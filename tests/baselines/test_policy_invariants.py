"""Cross-cutting invariants every registered grouping policy must satisfy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulation import simulate
from repro.registry import build_policy, policy_names

from tests.conftest import random_positive_skills

#: The paper's evaluation line-up (the registry without its extensions).
POLICY_NAMES = policy_names(include_extensions=False)

#: (n, k) shapes covering square, wide, and minimal group sizes.
SHAPES = [(12, 3), (12, 6), (20, 2), (18, 9)]

#: Inline search budgets that keep the search-based policies quick.
BUDGETS = {"lpa": "lpa:max_evals=80", "annealing": "annealing:steps=80"}


def _policy(name: str, mode: str = "star"):
    return build_policy(BUDGETS.get(name, name), mode=mode, rate=0.5)


class TestEveryPolicy:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}k{s[1]}")
    def test_produces_valid_partitions(self, name, shape, rng):
        n, k = shape
        skills = random_positive_skills(n, rng)
        grouping = _policy(name).propose(skills, k, rng)
        assert grouping.n == n
        assert grouping.k == k
        assert sorted(m for g in grouping for m in g) == list(range(n))

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_does_not_mutate_skills(self, name, rng):
        skills = random_positive_skills(12, rng)
        before = skills.copy()
        _policy(name).propose(skills, 3, rng)
        np.testing.assert_array_equal(skills, before)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_deterministic_under_fixed_rng(self, name, rng):
        skills = random_positive_skills(12, rng)
        policy = _policy(name)
        policy.reset()
        a = policy.propose(skills, 3, np.random.default_rng(7))
        policy.reset()
        b = policy.propose(skills, 3, np.random.default_rng(7))
        assert a == b

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_simulation_gain_non_negative_and_bounded(self, name, rng):
        from repro.core.objective import b_objective

        skills = random_positive_skills(12, rng)
        result = simulate(
            _policy(name), skills, k=3, alpha=3, mode="star", rate=0.5, seed=0
        )
        assert -1e-12 <= result.total_gain <= b_objective(skills) + 1e-9

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_handles_all_equal_skills(self, name, rng):
        skills = np.full(12, 3.0)
        result = simulate(
            _policy(name), skills, k=3, alpha=2, mode="star", rate=0.5, seed=0
        )
        assert result.total_gain == pytest.approx(0.0)
        np.testing.assert_allclose(result.final_skills, skills)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_handles_extreme_skill_scales(self, name, rng):
        # Mixed magnitudes: tiny and huge positive skills must not break
        # any grouper or produce invalid updates.
        skills = np.array([1e-6, 2e-6, 5.0, 7.0, 1e6, 2e6, 1.0, 3.0, 10.0, 20.0, 40.0, 80.0])
        result = simulate(
            _policy(name), skills, k=3, alpha=2, mode="star", rate=0.5, seed=0
        )
        assert np.all(np.isfinite(result.final_skills))
        assert np.all(result.final_skills >= skills - 1e-9)