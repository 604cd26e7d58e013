"""Experiment specifications.

An :class:`ExperimentSpec` captures one synthetic-data configuration from
Section V-B: population size, groups, rounds, learning rate, interaction
mode, initial-skill distribution, the algorithms to compare, and how many
independent runs to average ("In experiments involving randomness, we
average over 10 different runs").

The paper's default parameters (Section V-B2) are the dataclass defaults:
``k = 5``, ``n = 10000``, ``r = 0.5``, ``α = 5``, star mode, log-normal
initial skills.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro._validation import (
    require_divisible_groups,
    require_learning_rate,
    require_positive_int,
)
from repro.core.interactions import get_mode
from repro.core.vectorized import ENGINES
from repro.data.distributions import DISTRIBUTIONS
from repro.registry import PolicySpec

__all__ = ["ExperimentSpec", "DEFAULT_ALGORITHMS"]

#: The algorithm line-up of the paper's effectiveness figures.
DEFAULT_ALGORITHMS: tuple[str, ...] = ("dygroups", "random", "percentile", "lpa", "kmeans")


@dataclass(frozen=True)
class ExperimentSpec:
    """One synthetic-data experiment configuration.

    Attributes:
        n: number of participants.
        k: number of groups per round.
        alpha: number of rounds.
        rate: linear learning rate ``r``.
        mode: interaction mode name.
        distribution: initial-skill distribution name (see
            :data:`repro.data.distributions.DISTRIBUTIONS`).
        algorithms: registry policy specs to compare — a name or a
            ``"name:key=value;key=value"`` spec string with typed params
            (see :mod:`repro.registry`); extension policies included.
        runs: independent repetitions to average over.
        seed: base seed; run ``i`` uses ``seed + i``.
        lpa_max_evals: optional positive evaluation budget for the
            search-based baselines (filled into ``lpa``/``annealing``
            entries that do not set ``max_evals``/``steps`` inline, so
            their series keep the plain ``lpa`` label).
        engine: simulation engine selection — ``"auto"`` stacks the
            spec's runs through :func:`repro.core.simulate_many` for
            vectorizable algorithms and falls back per run otherwise,
            ``"scalar"`` forces the per-run loop.  Results are
            bit-identical across engines.
        workers: process-parallel worker count, used when the call
            (``run_spec``, ``sweep_outcomes``, ``run_grid``) passes none;
            ``0`` and ``1`` mean serial.  Results are bit-identical to
            serial execution.
    """

    n: int = 10_000
    k: int = 5
    alpha: int = 5
    rate: float = 0.5
    mode: str = "star"
    distribution: str = "lognormal"
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    runs: int = 10
    seed: int = 7
    lpa_max_evals: int | None = None
    engine: str = "auto"
    workers: int = 0

    def __post_init__(self) -> None:
        require_divisible_groups(self.n, self.k)
        require_positive_int(self.alpha, name="alpha")
        require_learning_rate(self.rate, name="rate")
        require_positive_int(self.runs, name="runs")
        if self.lpa_max_evals is not None:
            require_positive_int(self.lpa_max_evals, name="lpa_max_evals")
        get_mode(self.mode)
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) or self.workers < 0:
            raise ValueError(f"workers must be a non-negative int, got {self.workers!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; expected one of {sorted(DISTRIBUTIONS)}"
            )
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        # Validate every entry against the unified registry: names
        # (including extensions) and inline typed params, e.g.
        # "percentile:p=0.9".  The parse error names the offending key.
        for entry in self.algorithms:
            PolicySpec.parse(entry)

    def with_(self, **overrides: Any) -> "ExperimentSpec":
        """A copy of this spec with fields replaced (validated again)."""
        return replace(self, **overrides)
