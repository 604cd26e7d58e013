"""Unit tests for the batched DyGroups proposals (rank listings, sort, gather)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BATCH_MODES, as_skills_matrix, rank_structure
from repro.core.dygroups import DyGroupsClique, DyGroupsStar
from repro.core.local import dygroups_clique_local, dygroups_star_local
from repro.core.vectorized import vectorize_policy

REFERENCE = {"star": dygroups_star_local, "clique": dygroups_clique_local}


POLICY = {"star": DyGroupsStar, "clique": DyGroupsClique}


def groups_of(grouping):
    return [list(g) for g in grouping]


def propose_rows(matrix, k, mode):
    """Each row of a batched proposal, cut into its ``k`` groups."""
    members = vectorize_policy(POLICY[mode]()).propose_many(matrix, k, [None] * len(matrix))
    return [row.reshape(k, -1).tolist() for row in members]


class TestRankStructure:
    def test_star_structure_small(self):
        # n=6, k=2: teachers are ranks 0 and 1; blocks of 2 students follow.
        assert rank_structure(6, 2, "star") == ((0, 2, 3), (1, 4, 5))

    def test_clique_structure_small(self):
        # Round-robin deal of ranks across k=2 groups.
        assert rank_structure(6, 2, "clique") == ((0, 2, 4), (1, 3, 5))

    def test_covers_all_ranks(self):
        for mode in BATCH_MODES:
            structure = rank_structure(12, 3, mode)
            flat = sorted(r for group in structure for r in group)
            assert flat == list(range(12))

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            rank_structure(7, 2, "star")
        with pytest.raises(ValueError):
            rank_structure(6, 0, "star")
        with pytest.raises(ValueError):
            rank_structure(6, 2, "ring")


class TestProposeBatch:
    """``propose_many`` of the vectorized DyGroups policies, row by row."""

    @pytest.mark.parametrize("mode", BATCH_MODES)
    def test_matches_scalar_groupers(self, mode):
        rng = np.random.default_rng(10)
        matrix = rng.uniform(1.0, 9.0, size=(7, 20))
        for row, groups in zip(matrix, propose_rows(matrix, 4, mode)):
            assert groups == groups_of(REFERENCE[mode](row, 4))

    @pytest.mark.parametrize("mode", BATCH_MODES)
    def test_ties_match_scalar_tie_breaking(self, mode):
        # Stable order everywhere: ties must resolve identically.
        matrix = np.array([
            [3.0, 3.0, 1.0, 3.0, 2.0, 1.0],
            [5.0, 5.0, 5.0, 5.0, 5.0, 5.0],
        ])
        for row, groups in zip(matrix, propose_rows(matrix, 2, mode)):
            assert groups == groups_of(REFERENCE[mode](row, 2))

    def test_single_row_batch(self):
        row = np.array([[4.0, 1.0, 3.0, 2.0]])
        (groups,) = propose_rows(row, 2, "star")
        assert groups == groups_of(dygroups_star_local(row[0], 2))

    def test_one_dimensional_input_is_a_batch_of_one(self):
        row = np.array([4.0, 1.0, 3.0, 2.0])
        matrix = as_skills_matrix(row)
        assert matrix.shape == (1, 4)
        (groups,) = propose_rows(matrix, 2, "star")
        assert groups == groups_of(dygroups_star_local(row, 2))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            as_skills_matrix(np.ones((2, 3, 2)))  # 3-D, not a batch
        with pytest.raises(ValueError, match="non-empty"):
            as_skills_matrix(np.ones((0, 4)))
        with pytest.raises(ValueError, match="finite"):
            as_skills_matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="positive"):
            as_skills_matrix(np.array([[1.0, -1.0]]))  # non-positive skill
        with pytest.raises(TypeError):
            as_skills_matrix([["a", "b"]])
        with pytest.raises(ValueError):
            rank_structure(6, 4, "star")  # 6 % 4 != 0
