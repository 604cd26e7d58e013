"""Unit tests for the stacked-trial engine (:mod:`repro.core.vectorized`).

Bit-identity with the scalar engine over randomized instances lives in
``tests/properties/test_vectorized_properties.py``; this file covers the
deterministic pieces: the batched update kernels against their scalar
counterparts on fixed inputs, the :func:`vectorize_policy` dispatch
table, engine selection / validation errors, the previous round's
members that rank-listing policies hand their sort, and the
:class:`BatchSimulationResult` accessors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import contracts
from repro.baselines.annealing import AnnealingGrouping
from repro.baselines.kmeans import KMeansGrouping
from repro.baselines.lpa import LpaGrouping
from repro.baselines.percentile import PercentilePartitions
from repro.baselines.random_assignment import RandomAssignment
from repro.baselines.static import StaticPolicy
from repro.core.batch import flat_rank_listing, listing_members
from repro.core.dygroups import DyGroupsClique, DyGroupsStar
from repro.core.gain_functions import LinearGain
from repro.core.grouping import Grouping
from repro.core.simulation import simulate
from repro.core.update import update_clique, update_star
from repro.core.vectorized import (
    ENGINES,
    VectorizedPolicy,
    simulate_many,
    update_clique_many,
    update_star_many,
    vectorize_policy,
)
from repro.extensions.concave import SqrtGain


def _grouping_from_row(members_row: np.ndarray, k: int) -> Grouping:
    """The scalar grouping encoded by one members-matrix row."""
    return Grouping(members_row.reshape(k, -1))


def _random_members(rng: np.random.Generator, trials: int, n: int) -> np.ndarray:
    return np.vstack([rng.permutation(n) for _ in range(trials)]).astype(np.intp)


class TestUpdateKernels:
    """Batched star/clique updates == scalar updates, row by row."""

    def test_star_matches_scalar_rows(self):
        rng = np.random.default_rng(7)
        trials, n, k = 5, 12, 3
        skills = rng.uniform(1.0, 50.0, size=(trials, n))
        members = _random_members(rng, trials, n)
        out = update_star_many(skills, members, k, LinearGain(0.3))
        for i in range(trials):
            expected = update_star(skills[i], _grouping_from_row(members[i], k), LinearGain(0.3))
            np.testing.assert_array_equal(out[i], expected)

    def test_star_supports_nonlinear_gain(self):
        rng = np.random.default_rng(8)
        trials, n, k = 3, 8, 2
        skills = rng.uniform(1.0, 50.0, size=(trials, n))
        members = _random_members(rng, trials, n)
        gain = SqrtGain(0.4)
        out = update_star_many(skills, members, k, gain)
        for i in range(trials):
            expected = update_star(skills[i], _grouping_from_row(members[i], k), gain)
            np.testing.assert_array_equal(out[i], expected)

    def test_clique_matches_scalar_rows(self):
        rng = np.random.default_rng(9)
        trials, n, k = 5, 12, 4
        skills = rng.uniform(1.0, 50.0, size=(trials, n))
        members = _random_members(rng, trials, n)
        out = update_clique_many(skills, members, k, LinearGain(0.5))
        for i in range(trials):
            expected = update_clique(skills[i], _grouping_from_row(members[i], k), LinearGain(0.5))
            np.testing.assert_array_equal(out[i], expected)

    def test_clique_ties_match_scalar_rows(self):
        # Duplicated values force the tie-break path: the two-pass stable
        # sort must reproduce lexsort((-skills, labels)) exactly.
        rng = np.random.default_rng(10)
        trials, n, k = 6, 12, 3
        skills = np.round(rng.uniform(1.0, 4.0, size=(trials, n)))
        members = _random_members(rng, trials, n)
        out = update_clique_many(skills, members, k, LinearGain(0.5))
        for i in range(trials):
            expected = update_clique(skills[i], _grouping_from_row(members[i], k), LinearGain(0.5))
            np.testing.assert_array_equal(out[i], expected)

    def test_clique_rejects_nonlinear_gain(self):
        skills = np.ones((2, 4))
        members = np.vstack([np.arange(4), np.arange(4)]).astype(np.intp)
        with pytest.raises(ValueError, match="linear gain"):
            update_clique_many(skills, members, 2, SqrtGain(0.4))

    def test_uniform_skills_are_fixed_points(self):
        # All-equal skills mean zero teacher-learner differences: neither
        # kernel may move anything (including spurious float noise).
        skills = np.full((2, 6), 7.5)
        members = np.vstack([np.arange(6), np.arange(6)[::-1]]).astype(np.intp)
        np.testing.assert_array_equal(
            update_clique_many(skills, members, 2, LinearGain(0.5)), skills
        )
        np.testing.assert_array_equal(
            update_star_many(skills, members, 2, LinearGain(0.5)), skills
        )

    def test_rejects_shape_mismatch(self):
        skills = np.ones((2, 6))
        with pytest.raises(ValueError, match="does not match"):
            update_star_many(skills, np.zeros((2, 4), dtype=np.intp), 2, LinearGain(0.5))
        with pytest.raises(ValueError, match="2-D"):
            update_star_many(np.ones(6), np.zeros((1, 6), dtype=np.intp), 2, LinearGain(0.5))

    def test_rejects_indivisible_k(self):
        skills = np.ones((2, 6))
        members = np.vstack([np.arange(6)] * 2).astype(np.intp)
        with pytest.raises(ValueError):
            update_clique_many(skills, members, 4, LinearGain(0.5))


class TestVectorizePolicyDispatch:
    """Which scalar policies have a batched form."""

    @pytest.mark.parametrize(
        "policy",
        [DyGroupsStar(), DyGroupsClique(), RandomAssignment(), PercentilePartitions(0.75)],
    )
    def test_vectorizable_policies(self, policy):
        vec = vectorize_policy(policy)
        assert isinstance(vec, VectorizedPolicy)
        assert vec.name == policy.name

    def test_static_wraps_vectorizable_base(self):
        vec = vectorize_policy(StaticPolicy(RandomAssignment()))
        assert isinstance(vec, VectorizedPolicy)
        assert vec.name == "static-random"

    def test_static_of_unvectorizable_base_is_none(self):
        assert vectorize_policy(StaticPolicy(KMeansGrouping())) is None

    @pytest.mark.parametrize(
        "policy",
        [
            KMeansGrouping(),
            LpaGrouping("star", 0.5, max_evals=10),
            AnnealingGrouping("star", 0.5, steps=10),
        ],
    )
    def test_unvectorizable_policies(self, policy):
        assert vectorize_policy(policy) is None

    def test_subclass_does_not_inherit_vectorization(self):
        class Tweaked(DyGroupsStar):
            pass

        assert vectorize_policy(Tweaked()) is None

    def test_proposals_match_scalar_policy(self):
        rng = np.random.default_rng(3)
        skills = rng.uniform(1.0, 50.0, size=(4, 12))
        for policy in (DyGroupsStar(), DyGroupsClique(), PercentilePartitions(0.75)):
            vec = vectorize_policy(policy)
            members = vec.propose_many(skills, 3, [None] * 4)
            for i in range(4):
                expected = policy.propose(skills[i], 3, np.random.default_rng(0))
                got = _grouping_from_row(members[i], 3)
                assert got.canonical() == expected.canonical()


class TestSimulateMany:
    """Engine selection, validation, and result accessors."""

    def _skills(self, trials=3, n=12, seed=0):
        return np.random.default_rng(seed).uniform(1.0, 50.0, size=(trials, n))

    def test_engines_tuple(self):
        assert ENGINES == ("auto", "scalar")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_many(
                DyGroupsStar(), self._skills(), k=3, alpha=2, mode="star", rate=0.5,
                engine="gpu",
            )

    def test_auto_uses_vectorized_when_possible(self):
        batch = simulate_many(
            DyGroupsStar(), self._skills(), k=3, alpha=2, mode="star", rate=0.5
        )
        assert batch.engine == "vectorized"

    def test_auto_falls_back_for_unvectorizable_policy(self):
        batch = simulate_many(
            KMeansGrouping(), self._skills(), k=3, alpha=2, mode="star", rate=0.5,
            seeds=[0, 1, 2],
        )
        assert batch.engine == "scalar"

    def test_auto_falls_back_for_nonlinear_clique(self):
        batch = simulate_many(
            DyGroupsClique(), self._skills(), k=3, alpha=2, mode="clique",
            gain=SqrtGain(0.4),
        )
        assert batch.engine == "scalar"

    def test_forced_scalar_engine(self):
        batch = simulate_many(
            DyGroupsStar(), self._skills(), k=3, alpha=2, mode="star", rate=0.5,
            engine="scalar",
        )
        assert batch.engine == "scalar"

    def test_required_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="optimizes for mode"):
            simulate_many(
                LpaGrouping("clique", 0.5, max_evals=10),
                self._skills(), k=3, alpha=2, mode="star", rate=0.5,
            )

    def test_seeds_length_validated(self):
        with pytest.raises(ValueError, match="seeds has length"):
            simulate_many(
                RandomAssignment(), self._skills(trials=3), k=3, alpha=2, mode="star",
                rate=0.5, seeds=[1, 2],
            )

    def test_exactly_one_of_gain_and_rate(self):
        skills = self._skills()
        with pytest.raises(ValueError, match="exactly one"):
            simulate_many(DyGroupsStar(), skills, k=3, alpha=2, mode="star")
        with pytest.raises(ValueError, match="exactly one"):
            simulate_many(
                DyGroupsStar(), skills, k=3, alpha=2, mode="star",
                gain=LinearGain(0.5), rate=0.5,
            )

    def test_one_dimensional_skills_is_batch_of_one(self):
        batch = simulate_many(
            DyGroupsStar(), np.array([4.0, 1.0, 3.0, 2.0]), k=2, alpha=2, mode="star",
            rate=0.5,
        )
        assert batch.trials == 1 and batch.n == 4

    def test_batch_result_accessors(self):
        skills = self._skills(trials=4)
        batch = simulate_many(
            DyGroupsClique(), skills, k=3, alpha=3, mode="clique", rate=0.5,
            record_history=True, record_timings=True,
        )
        assert batch.trials == 4 and batch.n == 12
        assert batch.round_gains.shape == (4, 3)
        assert batch.skill_history.shape == (4, 4, 12)
        assert batch.batch_round_seconds.shape == (3,)
        assert batch.round_seconds.shape == (4, 3)
        np.testing.assert_array_equal(
            batch.total_gains, batch.round_gains.sum(axis=1)
        )
        assert "vectorized" in str(batch)

    def test_result_slices_one_trial(self):
        skills = self._skills(trials=3)
        batch = simulate_many(
            DyGroupsStar(), skills, k=3, alpha=2, mode="star", rate=0.5,
            record_history=True,
        )
        one = batch.result(1)
        scalar = simulate(
            DyGroupsStar(), skills[1], k=3, alpha=2, mode="star", rate=0.5,
            record_history=True,
        )
        np.testing.assert_array_equal(one.final_skills, scalar.final_skills)
        np.testing.assert_array_equal(one.round_gains, scalar.round_gains)
        np.testing.assert_array_equal(one.skill_history, scalar.skill_history)
        assert one.groupings == ()
        with pytest.raises(IndexError):
            batch.result(3)

    def test_initial_skills_not_mutated(self):
        skills = self._skills()
        frozen = skills.copy()
        batch = simulate_many(DyGroupsStar(), skills, k=3, alpha=3, mode="star", rate=0.5)
        np.testing.assert_array_equal(skills, frozen)
        np.testing.assert_array_equal(batch.initial_skills, frozen)

    def test_rounds_after_the_first_hand_the_sort_the_prior_members(self, monkeypatch):
        from repro.core import vectorized as mod

        real = mod.descending_orders
        hints = []

        def spy(matrix, previous=None):
            hints.append(previous)
            return real(matrix, previous)

        monkeypatch.setattr(mod, "descending_orders", spy)
        batch = simulate_many(
            DyGroupsStar(), self._skills(trials=3), k=3, alpha=3, mode="star", rate=0.5,
            record_history=True,
        )
        assert len(hints) == 3 and hints[0] is None
        listing = flat_rank_listing(12, 3, "star")
        for t in (1, 2):
            played = listing_members(real(batch.skill_history[:, t - 1]), listing)
            assert np.array_equal(hints[t], played)
            assert not hints[t].flags.writeable

        vec = vectorize_policy(DyGroupsStar())
        hints.clear()
        vec.propose_many(self._skills(trials=2), 3, [])
        vec.propose_many(self._skills(trials=2, seed=1), 3, [])
        vec.reset()
        vec.propose_many(self._skills(trials=2, seed=2), 3, [])
        vec.propose_many(self._skills(trials=4, seed=3), 3, [])
        assert hints[0] is None and hints[1] is not None
        assert hints[2] is None  # after reset()
        assert hints[3] is None  # after a change of shape

    def test_contracts_catch_bad_members_matrix(self):
        class Broken(VectorizedPolicy):
            name = "broken"

            def propose_many(self, skills, k, rngs):
                members = np.zeros_like(skills, dtype=np.intp)  # not a permutation
                return members

        from repro.core import vectorized as mod

        policy = DyGroupsStar()
        real = mod.vectorize_policy
        try:
            mod.vectorize_policy = lambda p: Broken()
            with contracts.contracts_scope():
                with pytest.raises(contracts.ContractViolation, match="permutation"):
                    simulate_many(policy, self._skills(), k=3, alpha=1, mode="star", rate=0.5)
        finally:
            mod.vectorize_policy = real

    def test_wrong_proposal_shape_rejected(self):
        class WrongShape(VectorizedPolicy):
            name = "wrong-shape"

            def propose_many(self, skills, k, rngs):
                return np.zeros((1, skills.shape[1]), dtype=np.intp)

        from repro.core import vectorized as mod

        real = mod.vectorize_policy
        try:
            mod.vectorize_policy = lambda p: WrongShape()
            with pytest.raises(ValueError, match="members matrix of shape"):
                simulate_many(DyGroupsStar(), self._skills(), k=3, alpha=1, mode="star", rate=0.5)
        finally:
            mod.vectorize_policy = real
