"""Ablation A1 — the variance-maximizing tie-break (Theorem 2's payoff).

Theorem 1 leaves exponentially many round-optimal star groupings; DyGroups
picks the variance-maximizing one.  This ablation compares DyGroups-Star
against round-optimal policies with other non-teacher splits (random /
reversed / interleaved) over multiple rounds: every policy matches
DyGroups' gain in round 1 (Theorem 1b) and falls behind afterwards —
exactly the toy-example insight behind the k=2 optimality proof.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.local_optimum import STRATEGIES
from repro.core.dygroups import dygroups
from repro.core.simulation import simulate
from repro.data.distributions import lognormal_skills
from repro.experiments.render import render_table
from repro.metrics.series import Series, SeriesSet
from repro.registry import build_policy

from benchmarks._util import BENCH_RUNS, FULL, emit

N = 10_000 if FULL else 1_000
ALPHAS = (1, 2, 3, 4, 6, 8)


def _run() -> SeriesSet:
    labels = ["dygroups"] + [f"local-optimum-{s}" for s in STRATEGIES]
    totals: dict[str, list[float]] = {label: [] for label in labels}
    for alpha in ALPHAS:
        per_run: dict[str, list[float]] = {label: [] for label in labels}
        for run in range(BENCH_RUNS):
            skills = lognormal_skills(N, seed=run)
            per_run["dygroups"].append(
                dygroups(skills, k=5, alpha=alpha, rate=0.5, record_groupings=False).total_gain
            )
            for strategy in STRATEGIES:
                policy = build_policy(f"local-optimum-{strategy}")
                result = simulate(
                    policy,
                    skills,
                    k=5,
                    alpha=alpha,
                    mode="star",
                    rate=0.5,
                    seed=run,
                    record_groupings=False,
                )
                per_run[f"local-optimum-{strategy}"].append(result.total_gain)
        for label in labels:
            totals[label].append(float(np.mean(per_run[label])))
    return SeriesSet(
        title=f"Ablation A1: variance tie-break vs arbitrary local optima (star, n={N})",
        x_label="alpha",
        y_label="aggregate learning gain",
        series=tuple(
            Series(label=label, x=tuple(float(a) for a in ALPHAS), y=tuple(values))
            for label, values in totals.items()
        ),
    )


def bench_ablation_variance_tiebreak(benchmark):
    series_set = benchmark.pedantic(_run, iterations=1, rounds=1)
    emit("ablation_variance", render_table(series_set))

    dygroups_y = series_set.get("dygroups").y
    for strategy in STRATEGIES:
        other = series_set.get(f"local-optimum-{strategy}").y
        # Round 1: all round-optimal groupings tie (Theorem 1b).
        assert other[0] == pytest.approx(dygroups_y[0], rel=1e-9)
        # Multi-round: the variance tie-break never loses.
        assert all(d >= o - 1e-9 for d, o in zip(dygroups_y, other))
