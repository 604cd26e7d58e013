"""Ablation A3 — dynamic vs static (one-shot) grouping.

The paper's central hypothesis: allowing group composition to change over
time improves aggregate learning over one-shot groups (the setting of the
prior work it generalizes).  This ablation freezes each policy's round-1
grouping for all α rounds and measures what dynamism buys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulation import simulate
from repro.data.distributions import lognormal_skills
from repro.experiments.render import render_table
from repro.metrics.series import Series, SeriesSet
from repro.registry import build_policy

from benchmarks._util import BENCH_RUNS, FULL, emit

N = 10_000 if FULL else 1_000
ALPHAS = (1, 2, 4, 8)
PAIRS = (("dygroups", "static-dygroups"), ("random", "static-random"))


def _run(mode: str) -> SeriesSet:
    labels = [name for pair in PAIRS for name in pair]
    totals: dict[str, list[float]] = {label: [] for label in labels}
    for alpha in ALPHAS:
        per_run: dict[str, list[float]] = {label: [] for label in labels}
        for run in range(BENCH_RUNS):
            skills = lognormal_skills(N, seed=run)
            for label in labels:
                policy = build_policy(label, mode=mode, rate=0.5)
                result = simulate(
                    policy,
                    skills,
                    k=5,
                    alpha=alpha,
                    mode=mode,
                    rate=0.5,
                    seed=run,
                    record_groupings=False,
                )
                per_run[label].append(result.total_gain)
        for label in labels:
            totals[label].append(float(np.mean(per_run[label])))
    return SeriesSet(
        title=f"Ablation A3: dynamic vs static grouping ({mode}, n={N})",
        x_label="alpha",
        y_label="aggregate learning gain",
        series=tuple(
            Series(label=label, x=tuple(float(a) for a in ALPHAS), y=tuple(values))
            for label, values in totals.items()
        ),
    )


def _check(series_set) -> None:
    for dynamic_name, static_name in PAIRS:
        dynamic = series_set.get(dynamic_name).y
        static = series_set.get(static_name).y
        # Identical at alpha=1 (a single round cannot be dynamic) and
        # strictly better at the largest alpha.
        assert dynamic[0] == pytest.approx(static[0], rel=1e-9)
        assert dynamic[-1] > static[-1]


def bench_ablation_static_star(benchmark):
    series_set = benchmark.pedantic(_run, args=("star",), iterations=1, rounds=1)
    emit("ablation_static_star", render_table(series_set))
    _check(series_set)


def bench_ablation_static_clique(benchmark):
    series_set = benchmark.pedantic(_run, args=("clique",), iterations=1, rounds=1)
    emit("ablation_static_clique", render_table(series_set))
    _check(series_set)
