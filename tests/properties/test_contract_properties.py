"""Property-based tests for the runtime invariant contracts.

Two claims, over randomized ``(n, k, r, skills)`` instances for both the
star and clique policies:

1. the contracts never fire on the real implementation — every check in
   :mod:`repro.analysis.contracts` passes on genuine simulator output,
   from the scalar engine and from multi-round stacked batches alike;
2. enabling contracts is observationally free — trajectories are
   bit-identical with the checks on and off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.analysis.contracts import (
    check_clique_order_preserved,
    check_gains_nonnegative,
    check_partition,
    check_star_teacher_unchanged,
    check_top_k_teachers,
)
from repro.core.dygroups import DyGroupsClique, DyGroupsStar
from repro.core.gain_functions import LinearGain
from repro.core.grouping import Grouping
from repro.core.local import dygroups_clique_local, dygroups_star_local
from repro.core.simulation import simulate
from repro.core.update import update_clique, update_star
from repro.core.vectorized import simulate_many


@st.composite
def tdg_instances(draw, max_group_size: int = 5, max_k: int = 4):
    """A random (skills, k, rate, seed) instance with n divisible by k."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    size = draw(st.integers(min_value=2, max_value=max_group_size))
    n = k * size
    skills = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    rate = draw(st.floats(min_value=0.05, max_value=0.95))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return np.asarray(skills, dtype=np.float64), k, rate, seed


@pytest.mark.parametrize("policy_cls,mode", [(DyGroupsStar, "star"), (DyGroupsClique, "clique")])
@given(instance=tdg_instances())
@settings(max_examples=40, deadline=None)
def test_contracts_hold_on_real_simulations(policy_cls, mode, instance):
    skills, k, rate, seed = instance
    # The stacked engine runs a three-row batch: the same values in three
    # member orders, stepped for the same rounds as the scalar run.
    rows = np.vstack([skills, np.random.default_rng(seed).permutation(skills), skills[::-1]])
    with contracts.contracts_scope():
        result = simulate(
            policy_cls(), skills, k=k, alpha=3, mode=mode, rate=rate, seed=seed
        )
        batch = simulate_many(
            policy_cls(), rows, k=k, alpha=3, mode=mode, rate=rate,
            seeds=[seed] * 3,
        )
    assert batch.engine == "vectorized"
    assert np.all(result.round_gains >= 0.0)
    assert np.all(batch.round_gains >= 0.0)


@pytest.mark.parametrize("policy_cls,mode", [(DyGroupsStar, "star"), (DyGroupsClique, "clique")])
@given(instance=tdg_instances())
@settings(max_examples=25, deadline=None)
def test_contracts_are_bit_identical(policy_cls, mode, instance):
    skills, k, rate, seed = instance
    kwargs = dict(k=k, alpha=3, mode=mode, rate=rate, seed=seed, record_history=True)
    off = simulate(policy_cls(), skills, **kwargs)
    with contracts.contracts_scope():
        on = simulate(policy_cls(), skills, **kwargs)
    np.testing.assert_array_equal(off.final_skills, on.final_skills)
    np.testing.assert_array_equal(off.round_gains, on.round_gains)
    np.testing.assert_array_equal(off.skill_history, on.skill_history)


@given(instance=tdg_instances())
@settings(max_examples=40, deadline=None)
def test_star_update_satisfies_contracts_on_local_grouping(instance):
    skills, k, rate, _ = instance
    grouping = dygroups_star_local(skills, k)
    check_partition(grouping, n=len(skills), k=k)
    check_top_k_teachers(skills, grouping)
    updated = update_star(skills, grouping, LinearGain(rate))
    check_star_teacher_unchanged(skills, updated, grouping)
    check_gains_nonnegative(updated - skills)


@given(instance=tdg_instances())
@settings(max_examples=40, deadline=None)
def test_clique_update_satisfies_contracts_on_local_grouping(instance):
    skills, k, rate, _ = instance
    grouping = dygroups_clique_local(skills, k)
    check_partition(grouping, n=len(skills), k=k)
    check_top_k_teachers(skills, grouping)
    updated = update_clique(skills, grouping, LinearGain(rate))
    check_clique_order_preserved(skills, updated, grouping)
    check_gains_nonnegative(updated - skills)


@given(instance=tdg_instances(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_updates_satisfy_contracts_on_random_groupings(instance, data):
    # The star/clique invariants hold for ANY valid partition, not just the
    # DyGroups ones — permute members uniformly and re-check.
    skills, k, rate, _ = instance
    permutation = data.draw(st.permutations(range(len(skills))))
    grouping = Grouping.blocks_of_sorted(np.asarray(permutation, dtype=np.intp), k)
    check_partition(grouping, n=len(skills), k=k)
    gain = LinearGain(rate)
    check_star_teacher_unchanged(skills, update_star(skills, grouping, gain), grouping)
    check_clique_order_preserved(skills, update_clique(skills, grouping, gain), grouping)


@given(instance=tdg_instances())
@settings(max_examples=25, deadline=None)
def test_corrupted_partition_rejected(instance):
    skills, k, rate, _ = instance
    grouping = dygroups_star_local(skills, k)
    raw = [list(group) for group in grouping.groups]
    raw[0][0] = raw[-1][-1]  # duplicate one member across groups
    with pytest.raises(contracts.ContractViolation):
        check_partition(raw, n=len(skills), k=k)
