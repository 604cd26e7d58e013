"""Property-based tests for the serving layer's bit-identity guarantees.

Three claims, over randomized ``(skills, k, mode)`` instances including
ties and repeated values:

1. the vectorized batch grouper equals the scalar groupers row for row;
2. a cache *hit* returns exactly what a cold compute would, no matter
   what was inserted before the query;
3. a session advanced round by round over the service equals an offline
   ``simulate`` run with the same seed.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import make_policy
from repro.core.batch import propose_batch
from repro.core.local import dygroups_clique_local, dygroups_star_local
from repro.core.simulation import simulate
from repro.obs import runtime
from repro.serve.cache import GroupingCache
from repro.serve.config import ServeConfig
from repro.serve.scheduler import BatchScheduler
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
def test_batch_propose_equals_scalar_groupers(instance):
    matrix, k, mode = instance
    for row, grouping in zip(matrix, propose_batch(matrix, k, mode)):
        assert groups_of(grouping) == groups_of(REFERENCE[mode](row, k))


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
    # Batch entry point agrees with the scalar entry point.
    for row, grouping in zip(matrix, cache.propose_batch(list(matrix), k, mode)):
        assert groups_of(grouping) == groups_of(REFERENCE[mode](row, k))


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
    with GroupingService(ServeConfig(workers=0, cache_size=16)) as service:
        cohort = service.create_cohort(
            {"skills": skills.tolist(), "k": k, "mode": mode, "seed": seed}
        )["cohort"]
        for _ in range(alpha):
            service.advance_rounds(cohort, 1)
        final = np.array(service.get_cohort(cohort)["skills"])
    reference = simulate(
        make_policy("dygroups", mode=mode, rate=0.5),
        skills, k=k, alpha=alpha, mode=mode, rate=0.5, seed=seed,
    )
    assert np.array_equal(final, reference.final_skills)


def _counter(name):
    return runtime.metrics_registry().counter(name).value


class _ParkingCache(GroupingCache):
    """A memo whose first ``propose`` waits for ``release``, parking the worker."""

    def __init__(self) -> None:
        super().__init__(16)
        self.entered = threading.Event()
        self.release = threading.Event()

    def propose(self, skills, k, mode):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=10.0), "parking cache never released"
        return super().propose(skills, k, mode)


def _waved_trajectory(payload, alpha):
    """Play ``alpha`` rounds of the payload's cohort inside a two-cohort step wave."""
    with GroupingService(ServeConfig(workers=0, cache_size=0)) as service:
        parking, subject, partner = (
            service.store.get(service.create_cohort(payload)["cohort"]) for _ in range(3)
        )
        cache = _ParkingCache()
        waves = _counter("serve.scheduler.step_batches")
        scheduler = BatchScheduler(cache, workers=1, batch_min=2, parallelism=2)
        try:
            # A lone step drains alone, falls through inline and parks the
            # worker; the two steps queued behind it drain as one wave.
            parked = scheduler.submit_step(parking, 1)
            assert cache.entered.wait(timeout=10.0)
            futures = [scheduler.submit_step(session, alpha) for session in (subject, partner)]
            cache.release.set()
            parked.result(timeout=10.0)
            played = futures[0].result(timeout=10.0)
            futures[1].result(timeout=10.0)
        finally:
            scheduler.close()
        assert _counter("serve.scheduler.step_batches") - waves == 1
        return [r["gain"] for r in played], service.get_cohort(subject.id)["skills"]


@given(instance=cohort_instances())
@settings(max_examples=15, deadline=None)
def test_wave_fallthrough_and_inline_scheduling_agree(instance):
    """The scheduling decision is invisible: adaptive fall-through, a
    stacked step wave, and the worker-less inline route play
    bit-identical trajectories."""
    skills, k, mode, seed, alpha = instance
    payload = {"skills": skills.tolist(), "k": k, "mode": mode, "seed": seed}
    trajectories = []
    for config in (
        ServeConfig(workers=0, cache_size=16),
        ServeConfig(workers=2, cache_size=16),
    ):
        with GroupingService(config) as service:
            cohort = service.create_cohort(payload)["cohort"]
            played = service.advance_rounds(cohort, alpha)["played"]
            final = service.get_cohort(cohort)["skills"]
        trajectories.append(([r["gain"] for r in played], final))
    inline, adaptive = trajectories
    assert adaptive == inline
    assert _waved_trajectory(payload, alpha) == inline
