"""Parameter sweeps: run a spec across a grid of one parameter.

A sweep is the building block of every effectiveness figure (Figures
5–9): fix the defaults, vary one of ``n``, ``k``, ``α`` or ``r``, and
record each algorithm's mean total gain per grid point.
"""

from __future__ import annotations

import logging
from typing import Sequence

from repro.experiments.runner import SpecOutcome, _run_specs
from repro.experiments.spec import ExperimentSpec
from repro.metrics.series import Series, SeriesSet
from repro.obs import runtime as _obs
from repro.obs import trace as _trace

__all__ = ["sweep", "sweep_outcomes", "SWEEPABLE"]

_log = logging.getLogger("repro.experiments.sweep")

#: Spec fields a sweep may vary.
SWEEPABLE: tuple[str, ...] = ("n", "k", "alpha", "rate")


def _cast_value(parameter: str, value: float) -> "float | int":
    """Coerce a grid value to the spec field's type."""
    return float(value) if parameter == "rate" else int(value)


def sweep_outcomes(
    spec: ExperimentSpec,
    parameter: str,
    values: Sequence[float],
    *,
    workers: "int | None" = None,
) -> list[SpecOutcome]:
    """Run ``spec`` once per value of ``parameter`` and return raw outcomes.

    Args:
        spec: the base configuration.
        parameter: one of :data:`SWEEPABLE`.
        values: the grid.
        workers: process-parallel worker count for the whole sweep;
            ``None`` defers to ``spec.workers``.  Any value ``> 1``
            chunks the (grid point × run) cross product over the shared
            warm pool of :mod:`repro.experiments.parallel`; gain fields
            are bit-identical to the serial sweep.

    Raises:
        ValueError: for an unsweepable parameter or an empty grid.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
    if not values:
        raise ValueError("values must be non-empty")
    point_specs = [spec.with_(**{parameter: _cast_value(parameter, v)}) for v in values]
    obs = _obs.state()
    journal = obs.journal if obs is not None else None
    for point_spec in point_specs:
        value = getattr(point_spec, parameter)
        _log.info("sweep point: %s=%s", parameter, value)
        if journal is not None:
            journal.emit("sweep_point", parameter=parameter, value=value)
    with _trace.span("experiments.sweep", parameter=parameter, points=len(values)):
        results = _run_specs(point_specs, workers if workers is not None else spec.workers)
    return [outcome for outcome, _ in results]


def sweep(
    spec: ExperimentSpec,
    parameter: str,
    values: Sequence[float],
    *,
    title: str,
    y_label: str = "aggregate learning gain",
    metric: str = "gain",
) -> SeriesSet:
    """Run the sweep and package it as a figure-ready :class:`SeriesSet`.

    Args:
        spec: the base configuration.
        parameter: one of :data:`SWEEPABLE`.
        values: the grid.
        title: figure title.
        y_label: y-axis label.
        metric: ``"gain"`` (mean total gain) or ``"runtime"``
            (mean wall-clock seconds per run — the Figure 12/13 metric).
    """
    if metric not in ("gain", "runtime"):
        raise ValueError(f"metric must be 'gain' or 'runtime', got {metric!r}")
    outcomes = sweep_outcomes(spec, parameter, values)
    series = []
    for name in spec.algorithms:
        ys = []
        for outcome in outcomes:
            algo = outcome.outcomes[name]
            ys.append(algo.mean_total_gain if metric == "gain" else algo.mean_runtime_seconds)
        series.append(Series(label=name, x=tuple(float(v) for v in values), y=tuple(ys)))
    return SeriesSet(title=title, x_label=parameter, y_label=y_label, series=tuple(series))
