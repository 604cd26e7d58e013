"""Experiment runner: execute a spec for every algorithm, average over runs.

The runner owns seeding discipline: run ``i`` of a spec derives all of its
randomness (skill draw + policy randomness) from ``spec.seed + i``, and
every algorithm sees the *same* initial skills in run ``i`` — a paired
design that removes skill-draw variance from algorithm comparisons, as in
the paper's matched-population protocol.

Engine routing: the runs of each algorithm go through one
:func:`repro.core.vectorized.simulate_many` call.  With ``spec.engine``
``"auto"`` (the default) a vectorizable algorithm advances all runs with
a handful of ``(R, n)`` numpy kernels per round instead of ``R`` Python
loops; every other algorithm, or any under ``"scalar"``, falls back to
one scalar ``simulate()`` per run.  Seeding is unchanged (trial ``i``
still uses ``spec.seed + i``), so outcomes are **bit-identical** across
engines; only the timing fields are measured differently (a stacked
round is amortized uniformly over its trials).

Process parallelism: ``run_spec(spec, workers=N)`` (or ``spec.workers``)
fans the runs out over worker processes through
:func:`repro.experiments.parallel.execute`, the one executor every spec,
sweep and grid goes through; each worker draws its own runs' skills with
:func:`draw_skills`, and results are merged in deterministic run order
and are bit-identical to serial execution.

Instrumentation: each algorithm's runs are timed on the
``time.perf_counter`` clock (whole-run wall-clock) and the engine's
per-round timings (``record_timings=True``) feed
:attr:`AlgorithmOutcome.mean_round_seconds`; when observability is
configured (:mod:`repro.obs.runtime`), the runner additionally emits
``spec_start``/``spec_end`` journal events and wraps the work in spans.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.simulation import GroupingPolicy, SimulationResult
from repro.core.vectorized import simulate_many
from repro.data.distributions import get_distribution
from repro.experiments.spec import ExperimentSpec
from repro.obs import runtime as _obs
from repro.obs import trace as _trace
from repro.registry import PolicySpec, build_policy

__all__ = ["AlgorithmOutcome", "SpecOutcome", "run_spec", "draw_skills"]

_log = logging.getLogger("repro.experiments.runner")


@dataclass(frozen=True)
class AlgorithmOutcome:
    """Averaged results for one algorithm under one spec.

    Attributes:
        name: algorithm name.
        mean_total_gain: total gain averaged over runs.
        std_total_gain: sample standard deviation over runs (0 if 1 run).
        mean_round_gains: per-round gains averaged over runs (length α).
        mean_runtime_seconds: wall-clock seconds per run, averaged.
        mean_round_seconds: per-round wall-clock seconds averaged over
            runs (length α).
    """

    name: str
    mean_total_gain: float
    std_total_gain: float
    mean_round_gains: tuple[float, ...]
    mean_runtime_seconds: float
    mean_round_seconds: tuple[float, ...] = ()


@dataclass(frozen=True)
class SpecOutcome:
    """All algorithms' averaged results for one spec."""

    spec: ExperimentSpec
    outcomes: dict[str, AlgorithmOutcome]

    def gain_of(self, name: str) -> float:
        """Mean total gain of the named algorithm."""
        return self.outcomes[name].mean_total_gain

    def ranking(self) -> list[str]:
        """Algorithm names sorted by mean total gain, best first."""
        return sorted(self.outcomes, key=lambda a: self.outcomes[a].mean_total_gain, reverse=True)


def draw_skills(spec: ExperimentSpec, run_index: int) -> np.ndarray:
    """The initial skill array of run ``run_index`` of ``spec``."""
    generate = get_distribution(spec.distribution)
    return generate(spec.n, seed=spec.seed + run_index)


def _policy_for(spec: ExperimentSpec, entry: str) -> GroupingPolicy:
    """Build the policy for one ``spec.algorithms`` entry via the registry.

    ``spec.lpa_max_evals`` back-fills the search-budget param of entries
    that do not set it inline (the legacy knob bridge).
    """
    policy_spec = PolicySpec.parse(entry).with_defaults(
        max_evals=spec.lpa_max_evals, steps=spec.lpa_max_evals
    )
    return build_policy(policy_spec, mode=spec.mode, rate=spec.rate)


@dataclass
class _RunsData:
    """Per-algorithm accumulators for a set of runs (picklable).

    Lists are ordered by run index; chunked parallel execution produces
    one ``_RunsData`` per chunk and concatenates them in run order, so
    the merged lists are exactly what serial execution would build.
    """

    totals: dict[str, list[float]] = field(default_factory=dict)
    rounds: dict[str, list[np.ndarray]] = field(default_factory=dict)
    round_times: dict[str, list[np.ndarray]] = field(default_factory=dict)
    runtime_totals: dict[str, float] = field(default_factory=dict)
    raw: dict[str, list[SimulationResult]] = field(default_factory=dict)

    @classmethod
    def empty(cls, algorithms: Sequence[str]) -> "_RunsData":
        return cls(
            totals={name: [] for name in algorithms},
            rounds={name: [] for name in algorithms},
            round_times={name: [] for name in algorithms},
            runtime_totals={name: 0.0 for name in algorithms},
            raw={name: [] for name in algorithms},
        )

    def extend(self, other: "_RunsData") -> None:
        """Append ``other``'s runs after this accumulator's (in order)."""
        for name in self.totals:
            self.totals[name].extend(other.totals[name])
            self.rounds[name].extend(other.rounds[name])
            self.round_times[name].extend(other.round_times[name])
            self.runtime_totals[name] += other.runtime_totals[name]
            self.raw[name].extend(other.raw[name])


def _execute_runs(
    spec: ExperimentSpec,
    run_indices: Sequence[int],
    *,
    keep_results: bool = False,
) -> _RunsData:
    """Execute the given runs of ``spec`` for every algorithm.

    The work kernel of :func:`repro.experiments.parallel.execute`, in
    the parent for serial work and in the pool workers for chunks: a set
    of run indices in, per-algorithm accumulators out.  Per-run results
    depend only on ``spec`` and the run index (all randomness, the
    :func:`draw_skills` draw included, derives from ``spec.seed + i``
    and the batched kernels are row-independent), so any chunking of the
    index set concatenates back to the identical totals.
    """
    indices = list(run_indices)
    data = _RunsData.empty(spec.algorithms)
    if not indices:
        return data
    skills = np.stack([draw_skills(spec, i) for i in indices])
    obs = _obs.state()
    seeds = [spec.seed + i for i in indices]
    for name in spec.algorithms:
        policy = _policy_for(spec, name)
        with _trace.span(f"experiments.run_many:{name}", runs=len(indices)):
            started = time.perf_counter()
            batch = simulate_many(
                policy,
                skills,
                k=spec.k,
                alpha=spec.alpha,
                mode=spec.mode,
                rate=spec.rate,
                seeds=seeds,
                engine=spec.engine,
                record_timings=True,
            )
            elapsed = time.perf_counter() - started
        _log.debug(
            "runs %s %s [%s]: mean_total_gain=%.6g in %.4fs",
            indices, name, batch.engine, float(batch.total_gains.mean()), elapsed,
        )
        totals = batch.total_gains
        for row in range(len(indices)):
            data.totals[name].append(float(totals[row]))
            data.rounds[name].append(batch.round_gains[row].copy())
            assert batch.round_seconds is not None  # record_timings=True
            data.round_times[name].append(batch.round_seconds[row].copy())
            if keep_results:
                data.raw[name].append(batch.result(row))
        data.runtime_totals[name] = elapsed
        if obs is not None:
            obs.metrics.counter("experiments.simulations").inc(len(indices))
    return data


def _assemble_outcomes(spec: ExperimentSpec, data: _RunsData) -> dict[str, AlgorithmOutcome]:
    """Fold per-run accumulators into :class:`AlgorithmOutcome` rows.

    Serial and pooled execution both feed run-ordered lists in, so
    outcome equality reduces to list equality.
    """
    return {
        name: AlgorithmOutcome(
            name=name,
            mean_total_gain=float(np.mean(data.totals[name])),
            std_total_gain=float(np.std(data.totals[name], ddof=1)) if spec.runs > 1 else 0.0,
            mean_round_gains=tuple(np.mean(np.vstack(data.rounds[name]), axis=0)),
            mean_runtime_seconds=data.runtime_totals[name] / spec.runs,
            mean_round_seconds=tuple(np.mean(np.vstack(data.round_times[name]), axis=0)),
        )
        for name in spec.algorithms
    }


def _emit_spec_start(spec: ExperimentSpec) -> None:
    obs = _obs.state()
    journal = obs.journal if obs is not None else None
    if journal is not None:
        journal.emit(
            "spec_start",
            n=spec.n,
            k=spec.k,
            alpha=spec.alpha,
            rate=spec.rate,
            mode=spec.mode,
            distribution=spec.distribution,
            algorithms=list(spec.algorithms),
            runs=spec.runs,
            seed=spec.seed,
            engine=spec.engine,
        )


def _emit_spec_end(outcomes: dict[str, AlgorithmOutcome]) -> None:
    obs = _obs.state()
    journal = obs.journal if obs is not None else None
    if journal is not None:
        journal.emit(
            "spec_end",
            ranking=sorted(outcomes, key=lambda a: outcomes[a].mean_total_gain, reverse=True),
        )


def _run_specs(
    specs: Sequence[ExperimentSpec],
    workers: "int | None",
    *,
    keep_results: bool = False,
) -> list[tuple[SpecOutcome, _RunsData]]:
    """Run ``specs`` through one executor call; outcomes in spec order.

    The single path of :func:`run_spec`, sweeps and grids.  ``workers``
    is the caller's count for the whole list, resolved once (``None``,
    ``0`` and ``1`` mean serial); the specs' own ``workers`` fields are
    not consulted.  Journals ``spec_start`` for every spec before the
    work and ``spec_end`` for each after it.
    """
    from repro.experiments import parallel as _parallel

    count = _parallel.resolve_workers(workers)
    for spec in specs:
        _emit_spec_start(spec)
    merged = _parallel.execute(specs, workers=count, keep_results=keep_results)
    results = []
    for spec, data in zip(specs, merged):
        outcomes = _assemble_outcomes(spec, data)
        _emit_spec_end(outcomes)
        results.append((SpecOutcome(spec=spec, outcomes=outcomes), data))
    return results


def run_spec(
    spec: ExperimentSpec,
    *,
    keep_results: bool = False,
    workers: int | None = None,
) -> SpecOutcome | tuple[SpecOutcome, dict[str, list[SimulationResult]]]:
    """Run every algorithm of ``spec`` for ``spec.runs`` repetitions.

    Args:
        spec: the experiment configuration (``spec.engine`` selects the
            simulation engine; results are bit-identical either way).
        keep_results: also return the raw per-run
            :class:`SimulationResult` lists (memory-heavy for large n).
        workers: process-parallel worker count; ``None`` defers to
            ``spec.workers``.  Any value ``> 1`` chunks the runs over the
            shared warm pool of :mod:`repro.experiments.parallel`;
            outcomes are bit-identical to serial execution.

    Returns:
        The averaged :class:`SpecOutcome`; with ``keep_results=True``, a
        ``(outcome, results_by_algorithm)`` tuple.
    """
    _log.info(
        "run_spec: n=%d k=%d alpha=%d rate=%g mode=%s dist=%s runs=%d engine=%s algorithms=%s",
        spec.n, spec.k, spec.alpha, spec.rate, spec.mode,
        spec.distribution, spec.runs, spec.engine, ",".join(spec.algorithms),
    )
    with _trace.span("experiments.run_spec", n=spec.n, runs=spec.runs):
        [(outcome, data)] = _run_specs(
            [spec], workers if workers is not None else spec.workers, keep_results=keep_results
        )
    if keep_results:
        return outcome, data.raw
    return outcome
