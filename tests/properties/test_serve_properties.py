"""Property-based tests for the serving layer's bit-identity guarantees.

Two claims, over randomized ``(skills, k, mode)`` instances including
ties and repeated values:

1. a cache *hit* returns exactly what a cold compute would, no matter
   what was inserted before the query;
2. a session advanced over the service equals an offline ``simulate``
   run with the same seed, whether the memo proposes its rounds or the
   policy does.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local import dygroups_clique_local, dygroups_star_local
from repro.core.simulation import simulate
from repro.registry import build_policy
from repro.serve.cache import GroupingCache
from repro.serve.config import ServeConfig
from repro.serve.service import GroupingService

REFERENCE = {"star": dygroups_star_local, "clique": dygroups_clique_local}


def groups_of(grouping):
    return [list(g) for g in grouping]


@st.composite
def skill_batches(draw, max_rows: int = 4, max_k: int = 3, max_group_size: int = 4):
    """A random batch of same-length positive skill vectors (with ties)."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    size = draw(st.integers(min_value=2, max_value=max_group_size))
    n = k * size
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    # Draw from a tiny value pool so ties are common, not exceptional.
    pool = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=5,
        )
    )
    matrix = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=n, max_size=n),
            min_size=rows,
            max_size=rows,
        )
    )
    mode = draw(st.sampled_from(["star", "clique"]))
    return np.asarray(matrix, dtype=np.float64), k, mode


@given(instance=skill_batches())
@settings(max_examples=60, deadline=None)
def test_cache_hits_are_bit_identical_to_cold_computes(instance):
    """Acceptance: whatever the cache state, propose == fresh compute."""
    matrix, k, mode = instance
    cache = GroupingCache(max_entries=8)
    for row in matrix:
        # First pass warms the memo in arbitrary interleavings...
        cache.propose(row, k, mode)
    for row in matrix:
        # ...second pass must still match a cold scalar compute exactly,
        # for repeats and permuted multisets alike.
        assert groups_of(cache.propose(row, k, mode)) == groups_of(REFERENCE[mode](row, k))
        permuted = row[np.argsort(row, kind="stable")]  # a deterministic permutation
        assert groups_of(cache.propose(permuted, k, mode)) == groups_of(
            REFERENCE[mode](permuted, k)
        )


@st.composite
def cohort_instances(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    size = draw(st.integers(min_value=2, max_value=4))
    n = k * size
    skills = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    mode = draw(st.sampled_from(["star", "clique"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    alpha = draw(st.integers(min_value=1, max_value=4))
    return np.asarray(skills, dtype=np.float64), k, mode, seed, alpha


@given(instance=cohort_instances())
@settings(max_examples=25, deadline=None)
def test_served_trajectories_equal_offline_simulate(instance):
    skills, k, mode, seed, alpha = instance
    with GroupingService(ServeConfig(cache_size=16)) as service:
        cohort = service.create_cohort(
            {"skills": skills.tolist(), "k": k, "mode": mode, "seed": seed}
        )["cohort"]
        for _ in range(alpha):
            service.advance_rounds(cohort, 1)
        final = np.array(service.get_cohort(cohort)["skills"])
    reference = simulate(
        build_policy("dygroups", mode=mode, rate=0.5),
        skills, k=k, alpha=alpha, mode=mode, rate=0.5, seed=seed,
    )
    assert np.array_equal(final, reference.final_skills)


@given(instance=cohort_instances())
@settings(max_examples=15, deadline=None)
def test_served_trajectories_agree_with_memo_on_and_off(instance):
    """Whether the memo or the policy proposes, a multi-round advance
    plays the trajectory of ``simulate()``."""
    skills, k, mode, seed, alpha = instance
    payload = {"skills": skills.tolist(), "k": k, "mode": mode, "seed": seed}
    reference = simulate(
        build_policy("dygroups", mode=mode, rate=0.5),
        skills, k=k, alpha=alpha, mode=mode, rate=0.5, seed=seed,
    )
    for cache_size in (16, 0):
        with GroupingService(ServeConfig(cache_size=cache_size)) as service:
            cohort = service.create_cohort(payload)["cohort"]
            played = service.advance_rounds(cohort, alpha)["played"]
            final = np.array(service.get_cohort(cohort)["skills"])
        assert [r["gain"] for r in played] == [float(g) for g in reference.round_gains]
        assert np.array_equal(final, reference.final_skills)
