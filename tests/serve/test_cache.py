"""Unit tests for the content-addressed grouping memo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local import dygroups_clique_local, dygroups_star_local
from repro.obs import runtime
from repro.serve.cache import GroupingCache


def groups_of(grouping):
    return [list(g) for g in grouping]


@pytest.fixture
def skills() -> np.ndarray:
    return np.random.default_rng(1).uniform(1.0, 9.0, size=20)


class TestCorrectness:
    @pytest.mark.parametrize("mode,reference", [
        ("star", dygroups_star_local), ("clique", dygroups_clique_local),
    ])
    def test_cold_compute_matches_scalar_grouper(self, skills, mode, reference):
        cache = GroupingCache()
        assert groups_of(cache.propose(skills, 4, mode)) == groups_of(reference(skills, 4))

    @pytest.mark.parametrize("mode", ["star", "clique"])
    def test_exact_hit_is_bit_identical(self, skills, mode):
        cache = GroupingCache()
        cold = cache.propose(skills, 4, mode)
        warm = cache.propose(skills.copy(), 4, mode)
        assert groups_of(warm) == groups_of(cold)
        assert cache.stats()["hits"] == 1

    def test_ties_served_identically(self):
        skills = np.array([3.0, 3.0, 1.0, 3.0, 2.0, 1.0])
        cache = GroupingCache()
        cached = cache.propose(skills, 2, "star")
        assert groups_of(cached) == groups_of(dygroups_star_local(skills, 2))
        again = cache.propose(skills, 2, "star")
        assert groups_of(again) == groups_of(cached)

    def test_distinct_k_and_mode_do_not_collide(self, skills):
        cache = GroupingCache()
        star = cache.propose(skills, 4, "star")
        clique = cache.propose(skills, 4, "clique")
        k2 = cache.propose(skills, 2, "star")
        assert groups_of(star) != groups_of(clique)
        assert len(groups_of(k2)) == 2
        assert cache.stats()["misses"] == 3


class TestBoundsAndCounters:
    def test_lru_eviction_is_bounded(self):
        cache = GroupingCache(max_entries=3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            cache.propose(rng.uniform(1, 9, size=8), 2, "star")
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 7

    def test_eviction_also_clears_exact_index(self):
        cache = GroupingCache(max_entries=1)
        a = np.array([5.0, 4.0, 3.0, 2.0])
        b = np.array([9.0, 8.0, 7.0, 1.0])
        cache.propose(a, 2, "star")
        cache.propose(b, 2, "star")  # evicts a
        cache.propose(a, 2, "star")  # must re-miss, not hit a stale index
        assert cache.stats()["misses"] == 3

    def test_counters_reach_global_registry(self, skills):
        cache = GroupingCache()
        cache.propose(skills, 4, "star")
        cache.propose(skills, 4, "star")
        snapshot = runtime.metrics_registry().snapshot()
        assert snapshot["counters"]["serve.cache.hits"]["value"] == 1
        assert snapshot["counters"]["serve.cache.misses"]["value"] == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            GroupingCache(0)
