"""Property-based bit-identity pins for the stacked-trial engine.

The design contract of :mod:`repro.core.vectorized` is that batching is
*observationally invisible*: row ``i`` of a :func:`simulate_many` batch
is bit-identical — ``np.array_equal``, not ``allclose`` — to the scalar
:func:`~repro.core.simulation.simulate` trajectory with the same seed,
for every policy/mode combination that vectorizes.  Clique instances are
drawn with heavily duplicated skill values so the tie-break path (stable
rank by participant index) is exercised on nearly every example, and the
batched kernel is additionally pinned against the naive ``O(t²)``
pairwise reference.  The :meth:`Clique.group_gain` prefix-sum fast path
is pinned against its retained loop reference as well.

The round step's shortcuts are pinned on their own: the batched
descending order (an unstable sort, or a merge of the previous round's
members, plus a tie repair) equals numpy's stable argsort on tie-heavy,
mixed and subnormal rows, whatever previous members matrix it is handed;
the Clique update gives the same skills whether or not a proposal's
groups arrive already sorted; and rank-listing proposals come back
C-ordered.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.percentile import PercentilePartitions
from repro.baselines.random_assignment import RandomAssignment
from repro.baselines.static import StaticPolicy
from repro.core.batch import descending_orders
from repro.core.dygroups import DyGroupsClique, DyGroupsStar
from repro.core.gain_functions import LinearGain
from repro.core.grouping import Grouping
from repro.core.interactions import Clique
from repro.core.simulation import simulate
from repro.core.update import update_clique_naive, update_star_naive
from repro.core.vectorized import (
    simulate_many,
    update_clique_many,
    update_star_many,
    vectorize_policy,
)

_POSITIVE = st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False)
_SUBNORMAL = st.floats(min_value=5e-324, max_value=2.2e-308)


@st.composite
def batch_instances(draw, max_group_size: int = 5, max_k: int = 4, max_trials: int = 4):
    """A random stacked instance: (skills matrix, k, rate, seeds)."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    size = draw(st.integers(min_value=2, max_value=max_group_size))
    trials = draw(st.integers(min_value=1, max_value=max_trials))
    n = k * size
    values = draw(st.lists(_POSITIVE, min_size=trials * n, max_size=trials * n))
    skills = np.asarray(values, dtype=np.float64).reshape(trials, n)
    rate = draw(st.floats(min_value=0.05, max_value=0.95))
    seeds = [draw(st.integers(min_value=0, max_value=2**31 - 1)) for _ in range(trials)]
    return skills, k, rate, seeds


@st.composite
def tied_batch_instances(draw, max_group_size: int = 5, max_k: int = 4, max_trials: int = 4):
    """Stacked instances over a tiny value alphabet — ties almost surely."""
    skills, k, rate, seeds = draw(batch_instances(max_group_size, max_k, max_trials))
    levels = draw(st.integers(min_value=1, max_value=3))
    # Snap every skill onto `levels` distinct positive values.
    quantized = 1.0 + np.floor(skills * levels / 101.0)
    return quantized, k, rate, seeds


def _policies_for(mode: str):
    dygroups = DyGroupsStar() if mode == "star" else DyGroupsClique()
    return [dygroups, RandomAssignment(), PercentilePartitions(0.75), StaticPolicy(dygroups)]


@pytest.mark.parametrize("mode", ["star", "clique"])
@given(instance=st.one_of(batch_instances(), tied_batch_instances()))
@settings(max_examples=25, deadline=None)
def test_simulate_many_rows_bit_identical_to_scalar(mode, instance):
    skills, k, rate, seeds = instance
    for policy in _policies_for(mode):
        batch = simulate_many(
            policy, skills, k=k, alpha=3, mode=mode, rate=rate, seeds=seeds,
            record_history=True,
        )
        assert batch.engine == "vectorized"
        for i in range(skills.shape[0]):
            scalar = simulate(
                policy, skills[i], k=k, alpha=3, mode=mode, rate=rate, seed=seeds[i],
                record_history=True,
            )
            assert np.array_equal(batch.final_skills[i], scalar.final_skills)
            assert np.array_equal(batch.round_gains[i], scalar.round_gains)
            assert np.array_equal(batch.skill_history[i], scalar.skill_history)
        policy.reset()


@given(instance=tied_batch_instances())
@settings(max_examples=25, deadline=None)
def test_clique_ties_bit_identical_to_scalar_and_naive(instance):
    skills, k, rate, seeds = instance
    policy = DyGroupsClique()
    batch = simulate_many(
        policy, skills, k=k, alpha=3, mode="clique", rate=rate, seeds=seeds,
    )
    assert batch.engine == "vectorized"
    for i in range(skills.shape[0]):
        scalar = simulate(
            policy, skills[i], k=k, alpha=3, mode="clique", rate=rate, seed=seeds[i]
        )
        assert np.array_equal(batch.final_skills[i], scalar.final_skills)
        assert np.array_equal(batch.round_gains[i], scalar.round_gains)


@given(instance=tied_batch_instances())
@settings(max_examples=25, deadline=None)
def test_clique_kernel_matches_naive_reference_under_ties(instance):
    skills, k, rate, seeds = instance
    trials, n = skills.shape
    rng = np.random.default_rng(seeds[0])
    members = np.vstack([rng.permutation(n) for _ in range(trials)]).astype(np.intp)
    fast = update_clique_many(skills, members, k, LinearGain(rate))
    for i in range(trials):
        grouping = Grouping(members[i].reshape(k, n // k))
        naive = update_clique_naive(skills[i], grouping, LinearGain(rate))
        np.testing.assert_allclose(fast[i], naive, rtol=1e-12, atol=1e-12)


@given(instance=batch_instances())
@settings(max_examples=25, deadline=None)
def test_star_kernel_matches_naive_reference(instance):
    skills, k, rate, seeds = instance
    trials, n = skills.shape
    rng = np.random.default_rng(seeds[0])
    members = np.vstack([rng.permutation(n) for _ in range(trials)]).astype(np.intp)
    fast = update_star_many(skills, members, k, LinearGain(rate))
    for i in range(trials):
        grouping = Grouping(members[i].reshape(k, n // k))
        naive = update_star_naive(skills[i], grouping, LinearGain(rate))
        np.testing.assert_allclose(fast[i], naive, rtol=1e-12, atol=1e-12)


@given(instance=tied_batch_instances(max_trials=1))
@settings(max_examples=50, deadline=None)
def test_clique_group_gain_fast_path_matches_loop_reference(instance):
    skills, k, rate, _ = instance
    row = skills[0]
    n = row.shape[0]
    grouping = Grouping(np.arange(n).reshape(k, n // k))
    clique = Clique()
    gain = LinearGain(rate)
    for group in grouping:
        fast = clique.group_gain(row, group, gain)
        reference = clique._group_gain_reference(row, group, gain)
        np.testing.assert_allclose(fast, reference, rtol=1e-9, atol=1e-12)
        assert fast >= 0.0


@st.composite
def order_matrices(draw, max_trials: int = 4, max_n: int = 40):
    """``(R, n)`` positive rows, each tie-free, tie-heavy, mixed or subnormal."""
    trials = draw(st.integers(min_value=1, max_value=max_trials))
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = []
    for _ in range(trials):
        levels = draw(st.lists(st.one_of(_POSITIVE, _SUBNORMAL), min_size=1, max_size=3))
        tied = st.sampled_from(levels)
        element = draw(
            st.sampled_from([_POSITIVE, _SUBNORMAL, tied, st.one_of(tied, _POSITIVE, _SUBNORMAL)])
        )
        rows.append(draw(st.lists(element, min_size=n, max_size=n)))
    return np.asarray(rows, dtype=np.float64)


#: The previous members matrices a sort can be handed: no hint, the
#: identity, the reversal, a random permutation per row, and a stale
#: members matrix that DyGroups proposed for another matrix of the shape.
_PREVIOUS_KINDS = (None, "identity", "reversed", "random", "stale")


def _previous_members(kind, matrix, seed):
    trials, n = matrix.shape
    if kind is None:
        return None
    if kind == "identity":
        return np.tile(np.arange(n, dtype=np.intp), (trials, 1))
    if kind == "reversed":
        return np.tile(np.arange(n - 1, -1, -1, dtype=np.intp), (trials, 1))
    rng = np.random.default_rng(seed)
    if kind == "random":
        return np.vstack([rng.permutation(n) for _ in range(trials)])
    if n < 2:  # no grouping has a single member; its one order is 0
        return np.zeros((trials, 1), dtype=np.intp)
    other = rng.lognormal(1.0, 0.5, size=matrix.shape)
    k = next(d for d in (5, 4, 3, 2, 1) if n % d == 0 and n // d >= 2)
    return vectorize_policy(DyGroupsStar()).propose_many(other, k, [])


@given(
    matrix=order_matrices(),
    kind=st.sampled_from(_PREVIOUS_KINDS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_descending_orders_equal_stable_argsort(matrix, kind, seed):
    previous = _previous_members(kind, matrix, seed)
    assert np.array_equal(
        descending_orders(matrix, previous), np.argsort(-matrix, axis=1, kind="stable")
    )


def test_descending_orders_repair_ties_in_large_rows():
    n = 200_000
    rng = np.random.default_rng(11)
    tied = rng.integers(1, 100_000, size=n).astype(np.float64)
    assert np.unique(tied).size < n
    mixed = np.vstack([tied, rng.lognormal(1.0, 0.5, size=n), np.floor(tied / 50.0) + 1.0])
    all_tied = np.vstack([tied, np.floor(tied / 50.0) + 1.0])
    for matrix in (mixed, all_tied):
        expected = np.argsort(-matrix, axis=1, kind="stable")
        for kind in _PREVIOUS_KINDS:
            previous = _previous_members(kind, matrix, seed=12)
            assert np.array_equal(descending_orders(matrix, previous), expected), kind


def test_descending_orders_reject_a_previous_of_another_shape():
    positive = np.random.default_rng(4).lognormal(1.0, 0.5, size=(2, 6))
    for matrix in (positive, np.zeros((2, 6))):
        with pytest.raises(ValueError, match="previous has shape"):
            descending_orders(matrix, np.tile(np.arange(6), (3, 1)))


@pytest.mark.parametrize("policy", [DyGroupsClique(), PercentilePartitions(0.75)])
@given(instance=st.one_of(batch_instances(), tied_batch_instances()))
@settings(max_examples=40, deadline=None)
def test_clique_update_ignores_member_order_within_groups(policy, instance):
    skills, k, rate, seeds = instance
    trials, n = skills.shape
    members = vectorize_policy(policy).propose_many(skills, k, [])
    grouped = members.reshape(trials, k, n // k)
    shuffled = np.random.default_rng(seeds[0]).permuted(grouped, axis=2).reshape(trials, n)
    gain = LinearGain(rate)
    sorted_groups = update_clique_many(skills, members, k, gain)
    assert np.array_equal(sorted_groups, update_clique_many(skills, shuffled, k, gain))


@pytest.mark.parametrize(
    "policy", [DyGroupsStar(), DyGroupsClique(), PercentilePartitions(0.75)]
)
@pytest.mark.parametrize("trials", [2, 5])
def test_rank_listing_proposals_are_c_ordered(policy, trials):
    skills = np.random.default_rng(3).lognormal(1.0, 0.5, size=(trials, 60))
    members = vectorize_policy(policy).propose_many(skills, 5, [])
    assert members.flags.c_contiguous
