"""Smoke tests for the figure registry (tiny runs; full runs live in benchmarks/)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulation import simulate
from repro.experiments.figures import FIGURES, base_spec, fig10a, fig11
from repro.experiments.runner import draw_skills
from repro.experiments.spec import ExperimentSpec
from repro.metrics.series import SeriesSet
from repro.registry import build_policy


class TestFigureRegistry:
    def test_all_paper_figures_registered(self):
        expected = {
            "fig05a",
            "fig05b",
            "fig06a",
            "fig06b",
            "fig07a",
            "fig07b",
            "fig08a",
            "fig08b",
            "fig09a",
            "fig09b",
            "fig10a",
            "fig10b",
            "fig11",
            "fig12",
            "fig13",
        }
        assert expected == set(FIGURES)

    def test_base_spec_bench_preset(self):
        spec = base_spec(full=False, runs=None, mode="star", distribution="zipf")
        assert spec.n == 2_000
        assert spec.runs == 3

    def test_base_spec_full_preset(self):
        spec = base_spec(full=True, runs=None, mode="clique", distribution="lognormal")
        assert spec.n == 10_000
        assert spec.runs == 10

    def test_runs_override(self):
        assert base_spec(full=False, runs=7, mode="star", distribution="zipf").runs == 7


class TestFigureShapes:
    """Tiny-instance checks that figure builders return well-formed output."""

    def test_fig10a_ratio_series(self):
        # Tiny override through runs=1; the bench preset n stays 1000 but
        # a single run keeps this fast.
        result = fig10a(runs=1)
        assert isinstance(result, SeriesSet)
        assert result.x == (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        assert set(result.labels()) == {"dygroups-star/random", "dygroups-clique/random"}
        # DyGroups should not lose to random on average.
        for series in result.series:
            assert all(v > 0.9 for v in series.y)

    def test_fig10a_equals_per_run_simulate(self):
        """Each point is the mean DyGroups/Random ratio of scalar per-run totals."""
        result = fig10a(runs=2)
        spec = ExperimentSpec(n=1_000, k=50, rate=0.5, algorithms=("random",), runs=1)

        def total(algorithm: str, mode: str, alpha: int, run: int) -> float:
            return simulate(
                build_policy(algorithm, mode=mode, rate=spec.rate),
                draw_skills(spec, run),
                k=spec.k,
                alpha=alpha,
                mode=mode,
                rate=spec.rate,
                seed=spec.seed + run,
                record_groupings=False,
            ).total_gain

        for mode in ("star", "clique"):
            label = f"dygroups-{mode}/random"
            expected = tuple(
                float(
                    np.mean(
                        [
                            total(f"dygroups-{mode}", mode, alpha, run)
                            / total("random", mode, alpha, run)
                            for run in range(2)
                        ]
                    )
                )
                for alpha in (2, 4, 8, 16, 32, 64)
            )
            assert result.get(label).y == expected

    @pytest.mark.slow
    def test_fig11_returns_two_sets(self):
        ratios, measures = fig11(runs=1)
        assert isinstance(ratios, SeriesSet)
        assert isinstance(measures, SeriesSet)
        assert set(ratios.labels()) == {"CV ratio", "Gini ratio"}
        assert len(measures.labels()) == 4
