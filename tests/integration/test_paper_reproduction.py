"""Integration tests: the paper's headline claims, end to end.

Each test runs a full multi-component pipeline (distributions → policies →
simulation engine → metrics) and asserts the *shape* the paper reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dygroups import dygroups
from repro.core.simulation import simulate
from repro.data.distributions import lognormal_skills, zipf_skills
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.metrics.inequality import coefficient_of_variation, gini
from repro.registry import build_policy


@pytest.fixture(scope="module")
def effectiveness_outcome():
    """A moderately sized Section V-B2-style comparison (averaged runs)."""
    spec = ExperimentSpec(
        n=500,
        k=5,
        alpha=5,
        rate=0.5,
        mode="star",
        distribution="lognormal",
        algorithms=("dygroups", "random", "percentile", "lpa", "kmeans"),
        runs=5,
        lpa_max_evals=2_000,
    )
    return run_spec(spec)


class TestEffectivenessOrdering:
    """Section V-B2: DyGroups is superior to all baselines."""

    def test_dygroups_wins(self, effectiveness_outcome):
        assert effectiveness_outcome.ranking()[0] == "dygroups"

    def test_dygroups_beats_random_strictly(self, effectiveness_outcome):
        assert effectiveness_outcome.gain_of("dygroups") > effectiveness_outcome.gain_of("random")

    def test_all_policies_produce_positive_gain(self, effectiveness_outcome):
        for name, outcome in effectiveness_outcome.outcomes.items():
            assert outcome.mean_total_gain > 0, name


class TestParameterTrends:
    """Sections V-B2's qualitative parameter effects."""

    def test_gain_increases_with_n(self):
        gains = []
        for n in (100, 400, 1600):
            result = dygroups(lognormal_skills(n, seed=1), k=5, alpha=5, rate=0.5)
            gains.append(result.total_gain)
        assert gains[0] < gains[1] < gains[2]

    def test_gain_decreases_with_k(self):
        skills = lognormal_skills(2000, seed=2)
        gains = [
            dygroups(skills, k=k, alpha=5, rate=0.5).total_gain for k in (5, 50, 500)
        ]
        assert gains[0] > gains[1] > gains[2]

    def test_gain_increases_with_alpha(self):
        skills = zipf_skills(500, seed=3)
        gains = [dygroups(skills, k=5, alpha=a, rate=0.5).total_gain for a in (1, 3, 6)]
        assert gains[0] < gains[1] < gains[2]

    def test_gain_increases_with_rate_star(self):
        skills = lognormal_skills(500, seed=4)
        gains = [
            dygroups(skills, k=5, alpha=5, rate=r, mode="star").total_gain
            for r in (0.1, 0.5, 0.9)
        ]
        assert gains[0] < gains[1] < gains[2]


class TestFigure10Shape:
    """DyGroups' advantage over random grouping (Section V-B4)."""

    @pytest.mark.parametrize("mode", ["star", "clique"])
    def test_ratio_above_one_small_alpha(self, mode):
        skills = lognormal_skills(1000, seed=5)
        dy = dygroups(skills, k=5, alpha=4, rate=0.5, mode=mode)
        random_policy = build_policy("random")
        random_gains = [
            simulate(
                random_policy, skills, k=5, alpha=4, mode=mode, rate=0.5, seed=seed
            ).total_gain
            for seed in range(5)
        ]
        ratio = dy.total_gain / float(np.mean(random_gains))
        assert ratio > 1.0

    def test_star_comparable_to_clique_ratio(self):
        # Section V-B4: "DYGROUPS-STAR is comparable to DYGROUPS-CLIQUE"
        # relative to random under the defaults.
        skills = lognormal_skills(1000, seed=6)
        ratios = {}
        for mode in ("star", "clique"):
            dy = dygroups(skills, k=5, alpha=6, rate=0.5, mode=mode)
            rnd = simulate(
                build_policy("random"), skills, k=5, alpha=6, mode=mode, rate=0.5, seed=0
            )
            ratios[mode] = dy.total_gain / rnd.total_gain
        assert ratios["star"] == pytest.approx(ratios["clique"], rel=0.25)


class TestFairnessShape:
    """Section V-B5: inequality drops for both methods; DyGroups allows more."""

    @pytest.fixture(scope="class")
    def histories(self):
        skills = lognormal_skills(1000, seed=7)
        dy = dygroups(skills, k=5, alpha=32, rate=0.1, record_history=True)
        rnd = simulate(
            build_policy("random"),
            skills,
            k=5,
            alpha=32,
            mode="star",
            rate=0.1,
            seed=0,
            record_history=True,
        )
        return skills, dy.skill_history, rnd.skill_history

    def test_inequality_drops_over_time(self, histories):
        skills, dy_history, rnd_history = histories
        assert gini(dy_history[-1]) < gini(skills)
        assert gini(rnd_history[-1]) < gini(skills)

    def test_dygroups_allows_higher_inequality(self, histories):
        _, dy_history, rnd_history = histories
        for alpha in (8, 16, 32):
            assert gini(dy_history[alpha]) >= gini(rnd_history[alpha])
            assert coefficient_of_variation(dy_history[alpha]) >= coefficient_of_variation(
                rnd_history[alpha]
            )

    def test_gap_widens_over_time(self, histories):
        _, dy_history, rnd_history = histories
        early = gini(dy_history[4]) / gini(rnd_history[4])
        late = gini(dy_history[32]) / gini(rnd_history[32])
        assert late >= early


class TestRuntimeShape:
    """Section V-B6: DyGroups is near-linear and k-independent."""

    def test_dygroups_runtime_flat_in_k(self):
        import time

        skills = lognormal_skills(20_000, seed=8)
        timings = {}
        for k in (5, 100, 2000):
            start = time.perf_counter()
            dygroups(skills, k=k, alpha=3, rate=0.5, record_groupings=False)
            timings[k] = time.perf_counter() - start
        # k = 2000 should cost no more than a few times k = 5 (Python
        # per-group overhead allows some slack; the paper's claim is
        # k-independence of the asymptotic term).
        assert timings[2000] < timings[5] * 25

    def test_dygroups_scales_subquadratically_in_n(self):
        import time

        def measure(n: int) -> float:
            skills = lognormal_skills(n, seed=9)
            start = time.perf_counter()
            dygroups(skills, k=5, alpha=3, rate=0.5, record_groupings=False)
            return time.perf_counter() - start

        measure(1_000)  # warm-up
        t_small = max(measure(10_000), 1e-4)
        t_big = measure(100_000)
        assert t_big / t_small < 40  # 10x n -> far less than 100x time
