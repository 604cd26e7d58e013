"""Focused tests for the per-population HIT loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amt.experiment import AmtConfig, run_population
from repro.amt.population import Population
from repro.amt.retention import RetentionModel
from repro.amt.worker import Worker
from repro.registry import build_policy


def _population(n: int, name: str = "dygroups", seed: int = 0) -> Population:
    rng = np.random.default_rng(seed)
    latents = rng.uniform(0.2, 0.8, size=n)
    return Population(name=name, workers=[Worker(i, float(s)) for i, s in enumerate(latents)])


class TestRunPopulation:
    def test_trace_shapes(self):
        config = AmtConfig(population_size=16, k=4, alpha=2)
        population = _population(16)
        trace = run_population(
            population, build_policy("dygroups", mode=config.mode), config, np.random.default_rng(0)
        )
        assert len(trace.mean_scores) == 3
        assert len(trace.round_gains) == 2
        assert len(trace.retention) == 3

    def test_latents_only_increase(self):
        config = AmtConfig(population_size=16, k=4, alpha=3)
        population = _population(16)
        before = population.latent_skills()
        run_population(
            population, build_policy("dygroups", mode=config.mode), config, np.random.default_rng(0)
        )
        after = population.latent_skills()
        assert np.all(after >= before - 1e-12)

    def test_latents_stay_in_unit_interval(self):
        config = AmtConfig(population_size=16, k=4, alpha=5)
        population = _population(16)
        run_population(
            population, build_policy("random", mode=config.mode), config, np.random.default_rng(0)
        )
        latents = population.latent_skills()
        assert np.all((latents > 0) & (latents <= 1.0))

    def test_underenrolled_round_goes_flat(self):
        # A brutal retention model empties the cohort; once fewer than 2k
        # active workers remain, rounds contribute zero gain.
        config = AmtConfig(
            population_size=16,
            k=4,
            alpha=3,
            retention=RetentionModel(base_logit=-30.0, sensitivity=0.0),
        )
        population = _population(16)
        trace = run_population(
            population, build_policy("dygroups", mode=config.mode), config, np.random.default_rng(0)
        )
        assert trace.retention[1] == 0.0
        assert trace.round_gains[1] == 0.0
        assert trace.round_gains[2] == 0.0

    def test_sticky_retention_keeps_everyone(self):
        config = AmtConfig(
            population_size=16,
            k=4,
            alpha=3,
            retention=RetentionModel(base_logit=50.0, sensitivity=0.0),
        )
        population = _population(16)
        trace = run_population(
            population, build_policy("dygroups", mode=config.mode), config, np.random.default_rng(0)
        )
        assert trace.retention == [1.0, 1.0, 1.0, 1.0]

    def test_gains_accumulate_on_workers(self):
        config = AmtConfig(population_size=16, k=4, alpha=2)
        population = _population(16)
        trace = run_population(
            population, build_policy("dygroups", mode=config.mode), config, np.random.default_rng(0)
        )
        worker_total = sum(sum(w.round_gains) for w in population.workers)
        assert worker_total == pytest.approx(trace.total_gain, rel=1e-9)
