"""Stacked-trial simulation engine: all trials advance in lock-step.

Every effectiveness and runtime figure in the paper averages ``R``
independent trials of the same ``(policy, n, k, α, mode)`` configuration.
The scalar engine (:func:`repro.core.simulation.simulate`) runs them one
at a time; this module runs the whole stack per round with a handful of
vectorized numpy calls:

* both ``DYGROUPS-MODE-LOCAL`` groupers (and the percentile and
  fair-star baselines) are pure functions of the descending order, so
  proposing for ``R`` trials is one ``(R, n)`` stable descending order
  (:func:`repro.core.batch.descending_orders`) plus an index gather.
  From round 2 on the policy hands that sort the members matrix it
  proposed last round; both updates keep a DyGroups group in descending
  order, so the sort merges ``k`` presorted runs instead of sorting
  afresh;
* the Star update gathers the ``(R, k, t)`` member tensor with one flat
  ``np.take``, adds each group's teacher gain in place and scatters it
  back with one flat assignment;
* the Clique update applies Theorem 3's prefix-sum formula to the same
  tensor, whose groups those proposals already list in descending order
  (other proposals, such as random assignment, are sorted first).

Bit-identity with the scalar engine is a hard design constraint, pinned
by hypothesis properties in ``tests/properties``: the round step itself
lives in :class:`repro.engine.stacked.StackedRoundKernel` (with the
batched Star/Clique update kernels beside it), which performs the same
float operations, on the same operands, as the scalar kernel.  This
module keeps the driver: trial stacking, per-trial seeding, trajectory
recording, and the scalar fallback.

Policies without a vectorization (annealing, k-means, LPA, brute force)
fall back to per-trial scalar :func:`~repro.core.simulation.simulate`
calls automatically.  :func:`simulate_many` is the single entry point
either way and the one place that picks the engine;
:func:`vectorize_policy` is the one dispatch from a scalar policy to its
batched form.
"""

from __future__ import annotations

import abc
import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro._validation import require_divisible_groups, require_positive_int
from repro.core.batch import (
    as_skills_matrix,
    descending_orders,
    flat_rank_listing,
    listing_members,
)
from repro.core.gain_functions import GainFunction, LinearGain
from repro.core.interactions import InteractionMode, get_mode
from repro.core.simulation import GroupingPolicy, SimulationResult, simulate
from repro.engine.kernel import check_required_mode
from repro.engine.stacked import (
    ENGINE_NAME,
    StackedRoundKernel,
    update_clique_many,
    update_star_many,
)
from repro.obs import trace as _trace

__all__ = [
    "ENGINES",
    "BatchSimulationResult",
    "VectorizedPolicy",
    "simulate_many",
    "update_clique_many",
    "update_star_many",
    "vectorize_policy",
]

_log = logging.getLogger("repro.core.vectorized")

#: Engine selectors accepted by :func:`simulate_many` and the experiment
#: layer: ``"auto"`` stacks the trials when the policy and mode allow
#: and falls back per trial otherwise; ``"scalar"`` forces the per-trial
#: path.
ENGINES: tuple[str, ...] = ("auto", "scalar")


class VectorizedPolicy(abc.ABC):
    """A grouping policy that proposes for a whole stack of trials at once.

    The batched analogue of :class:`~repro.core.simulation.GroupingPolicy`:
    instead of one :class:`~repro.core.grouping.Grouping`, a proposal is a
    ``(R, n)`` *members matrix* whose row ``r`` lists participant indices
    such that group ``g`` of trial ``r`` occupies the contiguous column
    slice ``[g·t, (g+1)·t)`` with ``t = n // k``.  Each row must be a
    permutation of ``0 … n−1``.
    """

    #: Must equal the wrapped scalar policy's ``name``.
    name: str = ""

    @abc.abstractmethod
    def propose_many(
        self, skills: np.ndarray, k: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Return the ``(R, n)`` members matrix for the current skills.

        Args:
            skills: ``(R, n)`` current skill matrix (must not be mutated).
            k: number of groups; divides ``n``.
            rngs: one generator per trial — stochastic policies must draw
                exactly what their scalar counterpart draws, from the
                trial's own generator, so streams stay bit-identical.
        """

    def reset(self) -> None:
        """Clear any cross-round state before a new batch of simulations."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _RankListingPolicy(VectorizedPolicy):
    """Deterministic policy that is a pure function of the descending order.

    Covers DyGroups Star/Clique (Algorithms 2 and 3), the percentile
    baseline and fair-star: the member listing over *ranks* is fixed per
    ``(n, k)``, so a proposal is one batched argsort plus a gather.  The
    policy keeps its last (read-only) members matrix and hands it to the
    next sort of the same shape, which then merges the groups just played
    instead of sorting afresh; :meth:`reset` drops it.  The proposal is
    the same whatever that matrix holds, only faster when it lists the
    rows in presorted runs.
    """

    def __init__(self, name: str, listing_for: "callable") -> None:
        self.name = name
        self._listing_for = listing_for
        self._previous: "np.ndarray | None" = None

    def reset(self) -> None:
        self._previous = None

    def propose_many(
        self, skills: np.ndarray, k: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        listing = self._listing_for(skills.shape[1], k)
        previous = self._previous
        if previous is not None and previous.shape != skills.shape:
            previous = None
        members = listing_members(descending_orders(skills, previous), listing)
        members.setflags(write=False)
        self._previous = members
        return members


@lru_cache(maxsize=256)
def _percentile_listing(n: int, k: int, p: float) -> np.ndarray:
    """Rank listing of ``PercentilePartitions(p)``, flattened per group.

    Mirrors the scalar seed/fill arithmetic exactly: the top ``(1 − p)``
    fraction (clamped to at least one seed per group, dealt round-robin)
    followed by descending filler blocks.
    """
    size = require_divisible_groups(n, k)
    seeds_total = max(k, min(int(round((1.0 - p) * n)), n))
    seeds_per_group = min(seeds_total // k, size)
    seed_count = seeds_per_group * k
    fill_per_group = size - seeds_per_group
    listing = np.empty(n, dtype=np.intp)
    for g in range(k):
        start = g * size
        listing[start : start + seeds_per_group] = np.arange(g, seed_count, k, dtype=np.intp)
        fill_start = seed_count + g * fill_per_group
        listing[start + seeds_per_group : start + size] = np.arange(
            fill_start, fill_start + fill_per_group, dtype=np.intp
        )
    listing.setflags(write=False)
    return listing


class _VectorizedRandom(VectorizedPolicy):
    """Batched ``RANDOM-ASSIGNMENT``: one permutation per trial per round.

    Each trial draws ``rng.permutation(n)`` from its own generator — the
    exact draw (count and order) of the scalar baseline, so a trial's
    random stream is unchanged by batching.
    """

    name = "random"

    def propose_many(
        self, skills: np.ndarray, k: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        trials, n = skills.shape
        members = np.empty((trials, n), dtype=np.intp)
        for i in range(trials):
            members[i] = rngs[i].permutation(n)
        return members


class _VectorizedStatic(VectorizedPolicy):
    """Batched static baseline: freeze the base policy's first proposal."""

    def __init__(self, base: VectorizedPolicy) -> None:
        self._base = base
        self._frozen: np.ndarray | None = None
        self.name = f"static-{base.name}"

    def reset(self) -> None:
        self._frozen = None
        self._base.reset()

    def propose_many(
        self, skills: np.ndarray, k: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        if self._frozen is None:
            self._frozen = self._base.propose_many(skills, k, rngs)
        return self._frozen


def vectorize_policy(policy: GroupingPolicy) -> "VectorizedPolicy | None":
    """The batched counterpart of a scalar policy, or ``None``.

    Dispatches on the exact policy type (a subclass may have changed the
    semantics, so it does not inherit its parent's vectorization).
    Every other policy (annealing, k-means, LPA, brute force, …) has no
    vectorized form, and :func:`simulate_many` falls back to per-trial
    scalar simulation for it.  The registry's declared ``vectorizable``
    flag is the specification this dispatch is checked against.
    """
    # Baselines and extensions import the core engine, so these imports
    # must stay inside the function to keep core → baselines out of
    # import time.
    from repro.baselines.percentile import PercentilePartitions
    from repro.baselines.random_assignment import RandomAssignment
    from repro.baselines.static import StaticPolicy
    from repro.core.dygroups import DyGroupsClique, DyGroupsStar
    from repro.extensions.fairness import FairnessAwarePolicy, fair_star_rank_listing

    kind = type(policy)
    if kind is DyGroupsStar:
        return _RankListingPolicy(policy.name, lambda n, k: flat_rank_listing(n, k, "star"))
    if kind is DyGroupsClique:
        return _RankListingPolicy(policy.name, lambda n, k: flat_rank_listing(n, k, "clique"))
    if kind is RandomAssignment:
        return _VectorizedRandom()
    if kind is PercentilePartitions:
        p = policy.p  # type: ignore[attr-defined]
        return _RankListingPolicy(policy.name, lambda n, k: _percentile_listing(n, k, p))
    if kind is StaticPolicy:
        base = vectorize_policy(policy.base)  # type: ignore[attr-defined]
        return None if base is None else _VectorizedStatic(base)
    if kind is FairnessAwarePolicy:
        return _RankListingPolicy(policy.name, fair_star_rank_listing)
    return None


# -- the stacked-trial engine -------------------------------------------------
# (The batched update kernels live in repro.engine.stacked and are
# re-exported above for compatibility.)


@dataclass(frozen=True)
class BatchSimulationResult:
    """Trajectories of ``R`` stacked α-round simulations.

    The batched analogue of
    :class:`~repro.core.simulation.SimulationResult`; trial ``i`` is row
    ``i`` everywhere, and :meth:`result` slices one trial back out.

    Attributes:
        policy_name: name of the grouping policy.
        mode_name: interaction mode (``"star"``/``"clique"``).
        k: number of groups per round.
        alpha: number of rounds.
        engine: which engine produced the rows (``"vectorized"``, or
            ``"scalar"`` after a per-trial fallback).
        initial_skills: ``(R, n)`` skills before round 1.
        final_skills: ``(R, n)`` skills after round α.
        round_gains: ``(R, α)``; ``round_gains[i, t] = LG(G_{t+1})`` of
            trial ``i``.
        skill_history: ``(R, α+1, n)`` trajectory (``None`` unless
            recording was requested).
        round_seconds: ``(R, α)`` per-round seconds (``None`` unless
            timing was requested or observability is enabled).  On the
            vectorized engine a round advances all trials at once, so each
            trial is attributed the batch duration divided by ``R``.
        batch_round_seconds: length-α seconds the vectorized engine spent
            per stacked round (``None`` on the scalar fallback).
    """

    policy_name: str
    mode_name: str
    k: int
    alpha: int
    engine: str
    initial_skills: np.ndarray
    final_skills: np.ndarray
    round_gains: np.ndarray
    skill_history: np.ndarray | None = None
    round_seconds: np.ndarray | None = None
    batch_round_seconds: np.ndarray | None = None

    @property
    def trials(self) -> int:
        """Number of stacked trials ``R``."""
        return int(self.initial_skills.shape[0])

    @property
    def n(self) -> int:
        """Number of participants per trial."""
        return int(self.initial_skills.shape[1])

    @property
    def total_gains(self) -> np.ndarray:
        """Length-``R`` total gain per trial (the TDG objective values)."""
        return self.round_gains.sum(axis=1)

    def result(self, i: int) -> SimulationResult:
        """Trial ``i`` as a scalar :class:`SimulationResult` (no groupings)."""
        if not 0 <= i < self.trials:
            raise IndexError(f"trial index {i} out of range 0..{self.trials - 1}")
        return SimulationResult(
            policy_name=self.policy_name,
            mode_name=self.mode_name,
            k=self.k,
            alpha=self.alpha,
            initial_skills=self.initial_skills[i].copy(),
            final_skills=self.final_skills[i].copy(),
            round_gains=self.round_gains[i].copy(),
            groupings=(),
            skill_history=None if self.skill_history is None else self.skill_history[i].copy(),
            round_seconds=None if self.round_seconds is None else self.round_seconds[i].copy(),
        )

    def __str__(self) -> str:
        return (
            f"BatchSimulationResult(policy={self.policy_name!r}, mode={self.mode_name!r}, "
            f"trials={self.trials}, n={self.n}, k={self.k}, alpha={self.alpha}, "
            f"engine={self.engine!r})"
        )


def _resolve_gain(gain: "GainFunction | None", rate: "float | None") -> GainFunction:
    if (gain is None) == (rate is None):
        raise ValueError("provide exactly one of gain= or rate=")
    return gain if gain is not None else LinearGain(rate)  # type: ignore[arg-type]


def _scalar_fallback(
    policy: GroupingPolicy,
    matrix: np.ndarray,
    *,
    k: int,
    alpha: int,
    mode: InteractionMode,
    gain_fn: GainFunction,
    seeds: "Sequence[int | None]",
    record_history: bool,
    record_timings: bool,
) -> BatchSimulationResult:
    """Per-trial scalar simulation, stacked into a batch result."""
    results = [
        simulate(
            policy,
            matrix[i],
            k=k,
            alpha=alpha,
            mode=mode,
            gain=gain_fn,
            seed=seeds[i],
            record_groupings=False,
            record_history=record_history,
            record_timings=record_timings,
        )
        for i in range(matrix.shape[0])
    ]
    timed = all(r.round_seconds is not None for r in results)
    return BatchSimulationResult(
        policy_name=policy.name,
        mode_name=mode.name,
        k=int(k),
        alpha=alpha,
        engine="scalar",
        initial_skills=matrix,
        final_skills=np.vstack([r.final_skills for r in results]),
        round_gains=np.vstack([r.round_gains for r in results]),
        skill_history=(
            np.stack([r.skill_history for r in results]) if record_history else None
        ),
        round_seconds=np.vstack([r.round_seconds for r in results]) if timed else None,
        batch_round_seconds=None,
    )


def simulate_many(
    policy: GroupingPolicy,
    skills: np.ndarray,
    *,
    k: int,
    alpha: int,
    mode: "str | InteractionMode",
    gain: "GainFunction | None" = None,
    rate: "float | None" = None,
    seeds: "Sequence[int | None] | None" = None,
    engine: str = "auto",
    record_history: bool = False,
    record_timings: bool = False,
) -> BatchSimulationResult:
    """Run ``R`` stacked trials of ``policy`` for ``alpha`` rounds each.

    The batched analogue of :func:`repro.core.simulation.simulate`: row
    ``i`` of the ``(R, n)`` ``skills`` matrix is one independent trial,
    seeded by ``seeds[i]``, and every row of the returned
    :class:`BatchSimulationResult` is **bit-identical** to the scalar
    ``simulate(policy, skills[i], ..., seed=seeds[i])`` trajectory.

    Args:
        policy: the scalar grouping policy (vectorized automatically via
            :func:`vectorize_policy` when possible).
        skills: ``(R, n)`` initial skill matrix (a 1-D vector is treated
            as a batch of one).
        k: number of groups; must divide ``n``.
        alpha: number of rounds.
        mode: ``"star"`` / ``"clique"`` (or an ``InteractionMode``).
        gain: learning-gain function (exactly one of ``gain``/``rate``).
        rate: shorthand for ``gain=LinearGain(rate)``.
        seeds: per-trial RNG seeds (length ``R``); ``None`` draws OS
            entropy per trial, like scalar ``seed=None``.
        engine: ``"auto"`` (stack the trials when :func:`vectorize_policy`
            yields a batched policy and the mode is Star or the gain is
            linear — Clique's batched update is Theorem 3's closed form —
            and fall back per trial otherwise) or ``"scalar"`` (force
            per-trial simulation).  The result's ``engine`` field names
            the path taken.
        record_history: keep the ``(R, α+1, n)`` skill trajectory.
        record_timings: fill per-round timings (also on whenever
            observability is configured).

    Raises:
        ValueError: on inconsistent parameters or an unknown engine.
    """
    matrix = as_skills_matrix(skills)
    trials, n = matrix.shape
    require_divisible_groups(n, k)
    alpha = require_positive_int(alpha, name="alpha")
    resolved_mode = get_mode(mode)
    gain_fn = _resolve_gain(gain, rate)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if seeds is None:
        seed_list: list[int | None] = [None] * trials
    else:
        seed_list = list(seeds)
        if len(seed_list) != trials:
            raise ValueError(f"seeds has length {len(seed_list)}, expected {trials} (one per trial)")

    check_required_mode(policy, resolved_mode)

    # The engine decision: stack the trials when the policy has a batched
    # form and the mode's batched update exists — Star's for any
    # elementwise gain, Clique's (Theorem 3's closed form) for linear
    # gains only; otherwise run them one by one.
    vec = None if engine == "scalar" else vectorize_policy(policy)
    if vec is None or not (resolved_mode.name == "star" or gain_fn.is_linear):
        return _scalar_fallback(
            policy,
            matrix,
            k=int(k),
            alpha=alpha,
            mode=resolved_mode,
            gain_fn=gain_fn,
            seeds=seed_list,
            record_history=record_history,
            record_timings=record_timings,
        )

    rngs = [np.random.default_rng(s) for s in seed_list]
    vec.reset()
    # as_skills_matrix made a private copy, and the kernel never mutates
    # the skills it steps from, so the input doubles as the initial state.
    initial = matrix
    history = np.empty((trials, alpha + 1, n), dtype=np.float64) if record_history else None
    if history is not None:
        history[:, 0] = matrix
    round_gains = np.empty((trials, alpha), dtype=np.float64)

    # The stacked kernel owns the round step — propose span, shape
    # validation, contract hooks, batched update, per-trial gains,
    # journal events, and metrics (see repro.engine.stacked).
    kernel = StackedRoundKernel(vec, resolved_mode, gain_fn, record_timings=record_timings)
    timing = kernel.timing
    batch_seconds = np.empty(alpha, dtype=np.float64) if timing else None
    journal = kernel.journal
    _log.debug(
        "simulate_many: policy=%s mode=%s trials=%d n=%d k=%d alpha=%d",
        vec.name, resolved_mode.name, trials, n, k, alpha,
    )
    if journal is not None:
        journal.emit(
            "run_start",
            policy=vec.name,
            mode=resolved_mode.name,
            n=n,
            k=int(k),
            alpha=alpha,
            trials=trials,
            engine=ENGINE_NAME,
        )

    current = matrix
    with _trace.span("core.simulate_many", policy=vec.name, alpha=alpha, trials=trials):
        for t in range(alpha):
            outcome = kernel.step(current, k, rngs, round_index=t)
            round_gains[:, t] = outcome.gains
            if history is not None:
                history[:, t + 1] = outcome.updated
            current = outcome.updated
            if timing:
                batch_seconds[t] = outcome.seconds  # type: ignore[index]

    if journal is not None:
        journal.emit(
            "run_end",
            policy=vec.name,
            total_gain=float(round_gains.sum()),
            trials=trials,
            engine=ENGINE_NAME,
        )
    round_seconds = None
    if batch_seconds is not None:
        # One vectorized round advances every trial at once; amortize the
        # batch duration uniformly so per-trial timings stay comparable.
        round_seconds = np.tile(batch_seconds / trials, (trials, 1))
    return BatchSimulationResult(
        policy_name=vec.name,
        mode_name=resolved_mode.name,
        k=int(k),
        alpha=alpha,
        engine=ENGINE_NAME,
        initial_skills=initial,
        final_skills=current,
        round_gains=round_gains,
        skill_history=history,
        round_seconds=round_seconds,
        batch_round_seconds=batch_seconds,
    )
