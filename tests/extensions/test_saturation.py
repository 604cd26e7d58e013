"""Unit tests for the r = 1 saturation extension (footnote 5 / Section V-B2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dygroups import DyGroupsStar
from repro.extensions.saturation import rounds_to_saturation_bound, simulate_full_rate
from repro.registry import build_policy


class TestSaturationBound:
    def test_simple_values(self):
        # n=9, k=3 -> group size 3 -> ceil(log_3 9) = 2.
        assert rounds_to_saturation_bound(9, 3) == 2
        # n=16, k=4 -> size 4 -> ceil(log_4 16) = 2.
        assert rounds_to_saturation_bound(16, 4) == 2
        # n=8, k=4 -> size 2 -> ceil(log_2 8) = 3.
        assert rounds_to_saturation_bound(8, 4) == 3

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            rounds_to_saturation_bound(10, 3)


class TestSimulateFullRate:
    def test_dygroups_saturates_within_bound(self, rng):
        for n, k in [(9, 3), (16, 4), (8, 4), (64, 8), (100, 10)]:
            skills = rng.uniform(0.1, 1.0, size=n)
            result = simulate_full_rate(DyGroupsStar(), skills, k=k, seed=0)
            assert result.saturated
            assert result.rounds_to_saturation <= rounds_to_saturation_bound(n, k), (n, k)

    def test_max_holders_multiply_by_group_size(self, rng):
        # Under DyGroups-Star with r=1, the number of max holders grows by
        # a factor of the group size per round (until saturation).
        n, k = 64, 8
        skills = rng.uniform(0.1, 1.0, size=n)
        result = simulate_full_rate(DyGroupsStar(), skills, k=k, seed=0)
        size = n // k
        for before, after in zip(result.max_holder_counts, result.max_holder_counts[1:]):
            assert after == min(before * size, n)

    def test_counts_monotone(self, rng):
        skills = rng.uniform(0.1, 1.0, size=27)
        result = simulate_full_rate(build_policy("random"), skills, k=3, seed=0)
        counts = result.max_holder_counts
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_random_not_faster_than_dygroups(self, rng):
        skills = rng.uniform(0.1, 1.0, size=64)
        dy = simulate_full_rate(DyGroupsStar(), skills, k=8, seed=0)
        rnd_rounds = [
            simulate_full_rate(build_policy("random"), skills, k=8, seed=s).rounds_to_saturation
            for s in range(5)
        ]
        assert dy.rounds_to_saturation <= float(np.mean(rnd_rounds)) + 1e-9

    def test_alpha_max_cap(self, rng):
        # A pathological policy that groups identical blocks never spreads
        # the max; the cap must stop the loop.
        from repro.core.grouping import Grouping
        from repro.core.simulation import GroupingPolicy

        class FrozenBlocks(GroupingPolicy):
            name = "frozen"

            def propose(self, skills, k, rng):
                size = len(skills) // k
                return Grouping(
                    [range(i * size, (i + 1) * size) for i in range(k)]
                )

        skills = rng.uniform(0.1, 1.0, size=16)
        result = simulate_full_rate(FrozenBlocks(), skills, k=4, alpha_max=5, seed=0)
        assert not result.saturated
        assert result.rounds_to_saturation == 5

    def test_already_saturated_population(self):
        skills = np.full(8, 0.7)
        result = simulate_full_rate(DyGroupsStar(), skills, k=2, seed=0)
        assert result.saturated
        assert result.rounds_to_saturation == 0
        assert result.max_holder_counts == (8,)
