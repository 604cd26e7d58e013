"""One function per figure of the paper's synthetic evaluation (Section V-B).

Every function returns a figure-ready :class:`~repro.metrics.series.SeriesSet`
whose series carry the same lines the paper plots.  Two presets:

* ``full=False`` (default) — bench-sized grids, one decade smaller than
  the paper's largest points, so the whole suite runs in minutes of pure
  Python (the paper's originals were C++);
* ``full=True`` — the paper's grids (n up to 10⁵/10⁶ where applicable).

Absolute values are not expected to match the paper (different substrate);
the reproduced deliverables are the *shapes*: who wins, monotonicity, and
where the curves sit relative to each other.  EXPERIMENTS.md records the
comparison per figure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.vectorized import BatchSimulationResult, simulate_many
from repro.experiments.runner import draw_skills
from repro.experiments.spec import DEFAULT_ALGORITHMS, ExperimentSpec
from repro.experiments.sweep import sweep
from repro.metrics.inequality import coefficient_of_variation, gini
from repro.metrics.series import Series, SeriesSet
from repro.registry import build_policy

__all__ = [
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
    "FIGURES",
    "base_spec",
]

_BENCH_LPA_EVALS = 10_000
_FULL_LPA_EVALS = 50_000


def base_spec(*, full: bool, runs: int | None, mode: str, distribution: str) -> ExperimentSpec:
    """The Section V-B default spec, sized for bench or full runs."""
    return ExperimentSpec(
        n=10_000 if full else 2_000,
        k=5,
        alpha=5,
        rate=0.5,
        mode=mode,
        distribution=distribution,
        algorithms=DEFAULT_ALGORITHMS,
        runs=runs if runs is not None else (10 if full else 3),
        lpa_max_evals=_FULL_LPA_EVALS if full else _BENCH_LPA_EVALS,
    )


def _n_grid(full: bool) -> tuple[int, ...]:
    return (100, 1_000, 10_000, 100_000) if full else (100, 500, 2_000, 10_000)


def _k_grid(full: bool) -> tuple[int, ...]:
    return (5, 50, 500, 5_000) if full else (5, 50, 200, 1_000)


def _alpha_grid(full: bool) -> tuple[int, ...]:
    return (1, 2, 3, 4, 5, 6, 7, 8)


def _r_grid(full: bool) -> tuple[float, ...]:
    return (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


# --------------------------------------------------------------------------
# Figures 5-9: effectiveness sweeps
# --------------------------------------------------------------------------


def fig05a(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 5(a): aggregate LG vs n — clique mode, log-normal skills."""
    spec = base_spec(full=full, runs=runs, mode="clique", distribution="lognormal")
    return sweep(spec, "n", _n_grid(full), title="Fig 5(a): LG vs n (clique, log-normal)")


def fig05b(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 5(b): aggregate LG vs n — star mode, Zipf skills."""
    spec = base_spec(full=full, runs=runs, mode="star", distribution="zipf")
    return sweep(spec, "n", _n_grid(full), title="Fig 5(b): LG vs n (star, Zipf)")


def fig06a(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 6(a): aggregate LG vs k — star mode, log-normal skills."""
    spec = base_spec(full=full, runs=runs, mode="star", distribution="lognormal")
    return sweep(spec, "k", _k_grid(full), title="Fig 6(a): LG vs k (star, log-normal)")


def fig06b(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 6(b): aggregate LG vs k — clique mode, Zipf skills."""
    spec = base_spec(full=full, runs=runs, mode="clique", distribution="zipf")
    return sweep(spec, "k", _k_grid(full), title="Fig 6(b): LG vs k (clique, Zipf)")


def fig07a(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 7(a): aggregate LG vs α — clique mode, Zipf skills."""
    spec = base_spec(full=full, runs=runs, mode="clique", distribution="zipf")
    return sweep(spec, "alpha", _alpha_grid(full), title="Fig 7(a): LG vs alpha (clique, Zipf)")


def fig07b(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 7(b): aggregate LG vs α — star mode, log-normal skills."""
    spec = base_spec(full=full, runs=runs, mode="star", distribution="lognormal")
    return sweep(spec, "alpha", _alpha_grid(full), title="Fig 7(b): LG vs alpha (star, log-normal)")


def fig08a(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 8(a): aggregate LG vs r — clique mode, Zipf skills."""
    spec = base_spec(full=full, runs=runs, mode="clique", distribution="zipf")
    return sweep(spec, "rate", _r_grid(full), title="Fig 8(a): LG vs r (clique, Zipf)")


def fig08b(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 8(b): aggregate LG vs r — star mode, Zipf skills."""
    spec = base_spec(full=full, runs=runs, mode="star", distribution="zipf")
    return sweep(spec, "rate", _r_grid(full), title="Fig 8(b): LG vs r (star, Zipf)")


def fig09a(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 9(a): aggregate LG vs r — clique mode, log-normal skills."""
    spec = base_spec(full=full, runs=runs, mode="clique", distribution="lognormal")
    return sweep(spec, "rate", _r_grid(full), title="Fig 9(a): LG vs r (clique, log-normal)")


def fig09b(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 9(b): aggregate LG vs r — star mode, log-normal skills."""
    spec = base_spec(full=full, runs=runs, mode="star", distribution="lognormal")
    return sweep(spec, "rate", _r_grid(full), title="Fig 9(b): LG vs r (star, log-normal)")


# --------------------------------------------------------------------------
# Figure 10: learning gain relative to Random-Assignment
# --------------------------------------------------------------------------


def _simulate_runs(
    algorithm: str,
    mode: str,
    spec: ExperimentSpec,
    runs: int,
    *,
    alpha: int,
    record_history: bool = False,
) -> BatchSimulationResult:
    """Runs ``0 … runs−1`` of ``spec`` under ``algorithm``, one row each.

    One :func:`~repro.core.vectorized.simulate_many` call over the
    stacked :func:`draw_skills` rows; run ``i`` is seeded ``spec.seed + i``
    exactly as :func:`~repro.experiments.runner.run_spec` seeds it.
    """
    return simulate_many(
        build_policy(algorithm, mode=mode, rate=spec.rate),
        np.stack([draw_skills(spec, i) for i in range(runs)]),
        k=spec.k,
        alpha=alpha,
        mode=mode,
        rate=spec.rate,
        seeds=[spec.seed + i for i in range(runs)],
        record_history=record_history,
    )


def _ratio_over_random(
    x_values: Sequence[float],
    run_many: Callable[[str, str, float], np.ndarray],
    *,
    title: str,
    x_label: str,
) -> SeriesSet:
    """Build DyGroups/Random ratio series, one per interaction mode.

    ``run_many(algorithm, mode, x)`` returns the per-run total gains; a
    point is the mean of the per-run DyGroups/Random ratios.
    """
    series = []
    for mode, algo in (("star", "dygroups-star"), ("clique", "dygroups-clique")):
        ratios = []
        for x in x_values:
            per_run = run_many(algo, mode, x) / run_many("random", mode, x)
            ratios.append(float(np.mean(per_run)))
        series.append(
            Series(label=f"{algo}/random", x=tuple(float(v) for v in x_values), y=tuple(ratios))
        )
    return SeriesSet(title=title, x_label=x_label, y_label="gain ratio over random", series=tuple(series))


def fig10a(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 10(a): gain ratio over Random-Assignment, varying α.

    Paper grid: α ∈ {2, 4, 8, 16, 32, 64} at fixed n (10⁴ in the paper).
    Uses k = 50: with only a handful of huge groups even random groupings
    contain strong teachers and the ratio collapses toward 1; moderate
    group counts reproduce the paper's "up to 30% higher gain" headline
    (see EXPERIMENTS.md).
    """
    n = 10_000 if full else 1_000
    effective_runs = runs if runs is not None else (10 if full else 3)
    spec = ExperimentSpec(n=n, k=50, rate=0.5, algorithms=("random",), runs=1)

    def run_many(algorithm: str, mode: str, alpha: float) -> np.ndarray:
        return _simulate_runs(algorithm, mode, spec, effective_runs, alpha=int(alpha)).total_gains

    return _ratio_over_random(
        (2, 4, 8, 16, 32, 64),
        run_many,
        title=f"Fig 10(a): DyGroups/Random gain ratio vs alpha (n={n})",
        x_label="alpha",
    )


def fig10b(full: bool = False, runs: int | None = None) -> SeriesSet:
    """Fig 10(b): gain ratio over Random-Assignment, varying n, α = 10.

    Paper grid: n ∈ {10, 10², …, 10⁶}; the bench preset stops at 10⁴.
    """
    n_values: tuple[int, ...] = (10, 100, 1_000, 10_000, 100_000, 1_000_000) if full else (
        10,
        100,
        1_000,
        10_000,
    )
    effective_runs = runs if runs is not None else (10 if full else 3)
    spec = ExperimentSpec(n=10, k=5, rate=0.5, algorithms=("random",), runs=1)

    def run_many(algorithm: str, mode: str, n: float) -> np.ndarray:
        local = spec.with_(n=int(n))
        return _simulate_runs(algorithm, mode, local, effective_runs, alpha=10).total_gains

    return _ratio_over_random(
        n_values,
        run_many,
        title="Fig 10(b): DyGroups/Random gain ratio vs n (alpha=10)",
        x_label="n",
    )


# --------------------------------------------------------------------------
# Figure 11: inequality (fairness) analysis
# --------------------------------------------------------------------------


def fig11(full: bool = False, runs: int | None = None) -> tuple[SeriesSet, SeriesSet]:
    """Fig 11: inequality of DyGroups-Star vs Random-Assignment, r = 0.1.

    Returns ``(ratios, measures)``:

    * *ratios* — CV and Gini of DyGroups-Star divided by those of
      Random-Assignment, per α checkpoint (Fig 11(a));
    * *measures* — the raw CV and Gini values of both methods
      (Fig 11(b)).
    """
    n = 10_000 if full else 1_000
    effective_runs = runs if runs is not None else (10 if full else 3)
    checkpoints = (2, 4, 8, 16, 32, 64)
    max_alpha = checkpoints[-1]
    spec = ExperimentSpec(n=n, k=5, rate=0.1, algorithms=("random",), runs=1)

    metric_values: dict[tuple[str, str], list[list[float]]] = {
        (algo, metric): [[] for _ in checkpoints]
        for algo in ("dygroups-star", "random")
        for metric in ("cv", "gini")
    }
    for algo in ("dygroups-star", "random"):
        batch = _simulate_runs(
            algo, "star", spec, effective_runs, alpha=max_alpha, record_history=True
        )
        assert batch.skill_history is not None
        for history in batch.skill_history:
            for ci, alpha in enumerate(checkpoints):
                snapshot = history[alpha]
                metric_values[(algo, "cv")][ci].append(coefficient_of_variation(snapshot))
                metric_values[(algo, "gini")][ci].append(gini(snapshot))

    def mean_series(algo: str, metric: str, label: str) -> Series:
        ys = tuple(float(np.mean(vals)) for vals in metric_values[(algo, metric)])
        return Series(label=label, x=tuple(float(a) for a in checkpoints), y=ys)

    cv_dy = mean_series("dygroups-star", "cv", "CV-dygroups-star")
    cv_rand = mean_series("random", "cv", "CV-random")
    gini_dy = mean_series("dygroups-star", "gini", "Gini-dygroups-star")
    gini_rand = mean_series("random", "gini", "Gini-random")

    ratios = SeriesSet(
        title=f"Fig 11(a): inequality ratios over Random-Assignment (star, r=0.1, n={n})",
        x_label="alpha",
        y_label="ratio",
        series=(
            cv_dy.ratio_to(cv_rand, label="CV ratio"),
            gini_dy.ratio_to(gini_rand, label="Gini ratio"),
        ),
    )
    measures = SeriesSet(
        title=f"Fig 11(b): inequality measures (star, r=0.1, n={n})",
        x_label="alpha",
        y_label="CV / Gini",
        series=(cv_dy, cv_rand, gini_dy, gini_rand),
    )
    return ratios, measures


# --------------------------------------------------------------------------
# Figures 12-13: running time
# --------------------------------------------------------------------------


def _runtime_spec(full: bool, runs: int | None, mode: str) -> ExperimentSpec:
    return ExperimentSpec(
        n=10_000 if full else 2_000,
        k=5,
        alpha=5,
        rate=0.5,
        mode=mode,
        distribution="lognormal",
        algorithms=("dygroups", "random", "percentile", "lpa", "kmeans"),
        runs=runs if runs is not None else 3,
        lpa_max_evals=_BENCH_LPA_EVALS,
    )


def fig12(full: bool = False, runs: int | None = None) -> tuple[SeriesSet, SeriesSet]:
    """Fig 12: running time, star mode, log-normal — (a) vary n, (b) vary k."""
    spec = _runtime_spec(full, runs, "star")
    by_n = sweep(
        spec,
        "n",
        (100, 1_000, 10_000, 100_000) if full else (100, 1_000, 10_000),
        title="Fig 12(a): runtime vs n (star, log-normal)",
        y_label="seconds per run",
        metric="runtime",
    )
    by_k = sweep(
        spec.with_(n=10_000),
        "k",
        (5, 50, 500, 5_000) if full else (5, 50, 500),
        title="Fig 12(b): runtime vs k (star, log-normal)",
        y_label="seconds per run",
        metric="runtime",
    )
    return by_n, by_k


def fig13(full: bool = False, runs: int | None = None) -> tuple[SeriesSet, SeriesSet]:
    """Fig 13: running time, clique mode, log-normal — (a) vary n, (b) vary k."""
    spec = _runtime_spec(full, runs, "clique")
    by_n = sweep(
        spec,
        "n",
        (100, 1_000, 10_000, 100_000) if full else (100, 1_000, 10_000),
        title="Fig 13(a): runtime vs n (clique, log-normal)",
        y_label="seconds per run",
        metric="runtime",
    )
    by_k = sweep(
        spec.with_(n=10_000),
        "k",
        (5, 50, 500, 5_000) if full else (5, 50, 500),
        title="Fig 13(b): runtime vs k (clique, log-normal)",
        y_label="seconds per run",
        metric="runtime",
    )
    return by_n, by_k


#: Figure registry for the CLI; values produce SeriesSet or tuples thereof.
FIGURES: dict[str, Callable[..., object]] = {
    "fig05a": fig05a,
    "fig05b": fig05b,
    "fig06a": fig06a,
    "fig06b": fig06b,
    "fig07a": fig07a,
    "fig07b": fig07b,
    "fig08a": fig08a,
    "fig08b": fig08b,
    "fig09a": fig09a,
    "fig09b": fig09b,
    "fig10a": fig10a,
    "fig10b": fig10b,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
}
