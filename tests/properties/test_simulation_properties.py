"""Property-based tests for simulations, policies, and objectives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dygroups import dygroups
from repro.core.objective import b_objective
from repro.core.simulation import simulate
from repro.registry import build_policy


@st.composite
def simulation_configs(draw):
    """Random (skills, k, alpha, rate, mode) simulation configurations."""
    k = draw(st.integers(min_value=1, max_value=3))
    size = draw(st.integers(min_value=2, max_value=4))
    n = k * size
    skills = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    alpha = draw(st.integers(min_value=1, max_value=4))
    rate = draw(st.floats(min_value=0.05, max_value=0.95))
    mode = draw(st.sampled_from(["star", "clique"]))
    return np.array(skills, dtype=np.float64), k, alpha, rate, mode


@given(simulation_configs())
@settings(max_examples=60, deadline=None)
def test_dygroups_gain_bounded_by_b_objective(config):
    """No policy can capture more than the initially learnable skill."""
    skills, k, alpha, rate, mode = config
    result = dygroups(skills, k=k, alpha=alpha, rate=rate, mode=mode)
    assert -1e-9 <= result.total_gain <= b_objective(skills) + 1e-9


@given(simulation_configs())
@settings(max_examples=60, deadline=None)
def test_total_gain_equals_trajectory_difference(config):
    skills, k, alpha, rate, mode = config
    result = dygroups(skills, k=k, alpha=alpha, rate=rate, mode=mode)
    assert result.total_gain == pytest.approx(
        float(np.sum(result.final_skills - result.initial_skills)), rel=1e-9, abs=1e-9
    )


@given(simulation_configs())
@settings(max_examples=60, deadline=None)
def test_round_gains_non_negative(config):
    """Learning can never be negative in any round.

    Note per-round gains are NOT necessarily decreasing: the variance
    tie-break deliberately creates better second teachers, which can make
    later rounds gain *more* (the paper's Observation IV).
    """
    skills, k, alpha, rate, mode = config
    result = dygroups(skills, k=k, alpha=alpha, rate=rate, mode=mode)
    assert np.all(result.round_gains >= -1e-12)


@given(simulation_configs(), st.sampled_from(["random", "kmeans", "percentile"]))
@settings(max_examples=60, deadline=None)
def test_dygroups_at_least_baseline_single_round(config, baseline_name):
    """Round-local optimality: one round of DyGroups beats any baseline's round."""
    skills, k, _, rate, mode = config
    dy = dygroups(skills, k=k, alpha=1, rate=rate, mode=mode)
    policy = build_policy(baseline_name, mode=mode, rate=rate)
    other = simulate(policy, skills, k=k, alpha=1, mode=mode, rate=rate, seed=0)
    assert dy.total_gain >= other.total_gain - 1e-9


@given(simulation_configs())
@settings(max_examples=40, deadline=None)
def test_seeded_simulations_reproducible(config):
    skills, k, alpha, rate, mode = config
    policy_a = build_policy("random", mode=mode, rate=rate)
    policy_b = build_policy("random", mode=mode, rate=rate)
    a = simulate(policy_a, skills, k=k, alpha=alpha, mode=mode, rate=rate, seed=9)
    b = simulate(policy_b, skills, k=k, alpha=alpha, mode=mode, rate=rate, seed=9)
    np.testing.assert_array_equal(a.final_skills, b.final_skills)


@given(simulation_configs())
@settings(max_examples=40, deadline=None)
def test_b_objective_conservation(config):
    """b-objective decrease across the whole run equals the total gain."""
    skills, k, alpha, rate, mode = config
    result = dygroups(skills, k=k, alpha=alpha, rate=rate, mode=mode)
    drop = b_objective(result.initial_skills) - b_objective(result.final_skills)
    assert drop == pytest.approx(result.total_gain, rel=1e-9, abs=1e-9)
