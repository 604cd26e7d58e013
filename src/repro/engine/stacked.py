"""The stacked round-step kernel and the batched skill-update kernels.

The batched counterpart of :mod:`repro.engine.kernel`: one
:meth:`StackedRoundKernel.step` advances ``R`` independent trials by one
round with a handful of vectorized numpy calls — one ``(R, n)``
proposal, one batched update, one row-wise gain reduction.

Bit-identity with the scalar kernel is a hard design constraint, pinned
by hypothesis properties in ``tests/properties``: every elementwise
float operation here is the same operation, on the same operands, as its
scalar counterpart — gathering values into a different layout does not
change what is added to what.  Both update kernels gather the ``(R, k,
t)`` group tensor with one flat ``np.take`` over the raveled matrix
(row offsets added to the member indices), update it in place and
scatter it back with one flat assignment.  Clique tie order matches the
scalar ``np.lexsort((-skills, labels))`` convention: DyGroups and
percentile proposals already list each group in (−value, index) order,
which an ``O(n)`` check confirms, and any other members matrix is
sorted within its groups by one ``np.lexsort`` (descending value, then
member index).

The update kernels (:func:`update_star_many`, :func:`update_clique_many`)
live here beside the kernel that calls them; ``repro.core.vectorized``
re-exports them for compatibility.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro._validation import require_divisible_groups
from repro.analysis import contracts as _contracts
from repro.core.batch import flat_indices
from repro.core.gain_functions import GainFunction
from repro.core.interactions import InteractionMode, get_mode
from repro.obs import runtime as _obs
from repro.obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.vectorized import VectorizedPolicy

__all__ = [
    "ENGINE_NAME",
    "StackedRoundKernel",
    "StackedStepOutcome",
    "apply_update_many",
    "check_members_are_permutations",
    "update_clique_many",
    "update_star_many",
]

#: The stacked engine's name on results and journal records (the
#: per-trial path is ``"scalar"``); its metrics are labelled the same.
ENGINE_NAME = "vectorized"


def _check_members(skills: np.ndarray, members: np.ndarray, k: int) -> int:
    """Validate a members matrix against a skill matrix; returns group size."""
    if skills.ndim != 2:
        raise ValueError(f"skills must be 2-D (trials, n), got shape {skills.shape}")
    if members.shape != skills.shape:
        raise ValueError(
            f"members matrix shape {members.shape} does not match skills shape {skills.shape}"
        )
    return require_divisible_groups(skills.shape[1], k)


def update_star_many(
    skills: np.ndarray, members: np.ndarray, k: int, gain: GainFunction
) -> np.ndarray:
    """Batched ``UPDATE-SKILLS-STAR`` over a ``(R, n)`` skill matrix.

    ``members`` is a members matrix in the stacked layout (group ``g``
    in columns ``[g·t, (g+1)·t)``).  Per trial this performs exactly the
    scalar :func:`repro.core.update.update_star` arithmetic: every member
    adds ``gain(teacher − s)`` with the teacher the group's row-wise max.
    The groups are gathered with one flat ``np.take``, updated in place
    and scattered back with one flat assignment.
    """
    t = _check_members(skills, members, k)
    trials = skills.shape[0]
    flat = flat_indices(members)
    vals = np.take(skills, flat).reshape(trials, k, t)
    teachers = np.max(vals, axis=2, keepdims=True)
    vals += np.asarray(gain(teachers - vals), dtype=np.float64)
    out = np.empty_like(skills, order="C")
    out.reshape(-1)[flat] = vals.reshape(-1)
    return out


def _groups_in_rank_order(vals: np.ndarray, mem: np.ndarray) -> bool:
    """Whether every ``(R, k, t)`` group lists its members in (−value, index) order."""
    ahead, behind = vals[:, :, :-1], vals[:, :, 1:]
    ordered = (ahead > behind) | ((ahead == behind) & (mem[:, :, :-1] < mem[:, :, 1:]))
    return bool(np.all(ordered))


def update_clique_many(
    skills: np.ndarray, members: np.ndarray, k: int, gain: GainFunction
) -> np.ndarray:
    """Batched ``UPDATE-SKILLS-CLIQUE`` (Theorem 3) for linear gains.

    Needs each group of each trial in descending skill order — ties broken
    by ascending participant index, the scalar engine's
    ``np.lexsort((-skills, labels))`` convention — then applies the
    prefix-sum increment ``r·(c_i − i·s_{i+1}) / i`` with the same float
    operations and operand order as the scalar kernel.  DyGroups and
    percentile proposals already list every group in that order, which an
    ``O(n)`` check confirms; any other members matrix (``random``, say)
    is sorted into it with one ``np.lexsort`` per group.  The increment
    is added in place to the gathered values, which one flat assignment
    scatters back.

    Raises:
        ValueError: for a non-linear gain function (no closed form; use
            the scalar engine's naive path).
    """
    t = _check_members(skills, members, k)
    if not gain.is_linear:
        raise ValueError("update_clique_many requires a linear gain function")
    rate: float = gain.rate  # type: ignore[attr-defined]
    trials = skills.shape[0]
    # Within a row, flat indices order exactly as member indices do.
    flat = flat_indices(members).reshape(trials, k, t)
    vals = np.take(skills, flat)
    if not _groups_in_rank_order(vals, flat):
        # lexsort's last key is primary: descending value, ties by index.
        within = flat_indices(np.lexsort((flat, -vals), axis=2).reshape(trials * k, t))
        flat = np.take(flat, within).reshape(trials, k, t)
        vals = np.take(vals, within).reshape(trials, k, t)
    if t > 1:
        # Theorem 3 in place, in the scalar kernel's operation order:
        # s_{i+1} += r·(c_i − i·s_{i+1}) / i, with c_i the top-i prefix sum.
        prefix = np.cumsum(vals, axis=2)
        ranks = np.arange(1, t, dtype=np.float64)
        later = vals[:, :, 1:]
        increment = ranks * later
        np.subtract(prefix[:, :, :-1], increment, out=increment)
        increment *= rate
        increment /= ranks
        later += increment
    out = np.empty_like(skills, order="C")
    out.reshape(-1)[flat.reshape(-1)] = vals.reshape(-1)
    return out


def apply_update_many(
    skills: np.ndarray, members: np.ndarray, k: int, mode: InteractionMode, gain: GainFunction
) -> np.ndarray:
    """Dispatch the batched skill update for a mode.

    Raises:
        ValueError: for a mode without a batched update, or clique with a
            non-linear gain.
    """
    if mode.name == "star":
        return update_star_many(skills, members, k, gain)
    if mode.name == "clique":
        return update_clique_many(skills, members, k, gain)
    raise ValueError(f"mode {mode.name!r} has no batched skill update")


def check_members_are_permutations(members: np.ndarray) -> None:
    """Contract: every members-matrix row is a permutation of ``0 … n−1``."""
    n = members.shape[1]
    expected = np.arange(n, dtype=members.dtype)
    if not np.array_equal(np.sort(members, axis=1), np.broadcast_to(expected, members.shape)):
        raise _contracts.ContractViolation(
            "vectorized proposal violated the partition contract: "
            "a members-matrix row is not a permutation of 0..n-1"
        )


@dataclass(frozen=True)
class StackedStepOutcome:
    """What one stacked round step produced.

    Attributes:
        members: the ``(R, n)`` members matrix played this round.
        updated: the ``(R, n)`` post-round skill matrix.
        gains: length-``R`` round gains, one per trial.
        seconds: wall-clock duration of the whole stacked step (``None``
            unless the kernel is timing).
    """

    members: np.ndarray
    updated: np.ndarray
    gains: np.ndarray
    seconds: "float | None" = None


class StackedRoundKernel:
    """One configured stacked round step over ``(R, n)`` skill matrices.

    The batched analogue of :class:`repro.engine.kernel.RoundKernel`:
    propose for every trial at once through a
    :class:`~repro.core.vectorized.VectorizedPolicy`, apply the batched
    mode update, and account per-trial gains — with the vectorized
    engine's spans, journal events, metrics, and contract hooks carried
    exactly once.

    Args:
        vec: the batched policy proposing each round.
        mode: interaction mode (name or instance); must have a batched
            update (clique additionally requires a linear gain).
        gain_fn: the learning-gain function.
        record_timings: measure per-step wall-clock durations even when
            observability is off.

    Raises:
        ValueError: for a mode/gain combination with no batched update.
    """

    def __init__(
        self,
        vec: "VectorizedPolicy",
        mode: "str | InteractionMode",
        gain_fn: GainFunction,
        *,
        record_timings: bool = False,
    ) -> None:
        self.vec = vec
        self.mode = get_mode(mode)
        self.gain_fn = gain_fn
        if self.mode.name == "clique" and not gain_fn.is_linear:
            raise ValueError(
                "mode 'clique' requires a linear gain function to vectorize (Theorem 3)"
            )
        if self.mode.name not in ("star", "clique"):
            raise ValueError(f"mode {self.mode.name!r} has no batched skill update")
        self.policy_label = vec.name or type(vec).__name__
        obs = _obs.state()
        self.journal = obs.journal if obs is not None else None
        self.metrics = obs.metrics if obs is not None else None
        self.timing = record_timings or obs is not None
        if self.metrics is not None:
            self._rounds_counter = self.metrics.counter("core.rounds")
            self._engine_rounds_counter = self.metrics.counter("core.rounds.vectorized")
            self._interactions_counter = self.metrics.counter("core.interactions")
            self._proposals_counter = self.metrics.counter(f"core.proposals.{self.policy_label}")
            self._round_timer = self.metrics.timer("core.round_seconds")
            self._engine_round_timer = self.metrics.timer("core.round_seconds.vectorized")

    def step(
        self,
        current: np.ndarray,
        k: int,
        rngs: Sequence[np.random.Generator],
        *,
        round_index: int,
    ) -> StackedStepOutcome:
        """Advance every trial of ``current`` by one round.

        Args:
            current: the ``(R, n)`` pre-round skill matrix (never
                mutated).
            k: number of groups; divides ``n``.
            rngs: one generator per trial, handed to the batched propose.
            round_index: 0-based round number, for journal events.

        Raises:
            ValueError: if the proposal's shape does not match.
            ContractViolation: when runtime contracts are enabled and an
                invariant fails.
        """
        step_started = time.perf_counter() if self.timing else 0.0
        trials = current.shape[0]
        journal = self.journal
        if journal is not None:
            journal.emit("round_start", round=round_index, trials=trials, engine=ENGINE_NAME)
        with _trace.span(f"policy.propose_many:{self.policy_label}"):
            members = self.vec.propose_many(current, k, rngs)
        if members.shape != current.shape:
            raise ValueError(
                f"vectorized policy {self.policy_label!r} returned a members matrix of shape "
                f"{members.shape}; expected {current.shape}"
            )
        checking = _contracts.contracts_enabled()
        if checking:
            check_members_are_permutations(members)
        with _trace.span("core.skill_update:vectorized"):
            updated = apply_update_many(current, members, k, self.mode, self.gain_fn)
        gains = np.sum(updated - current, axis=1)
        if checking:
            _contracts.check_gains_nonnegative(gains)
        seconds: "float | None" = None
        if self.timing:
            seconds = time.perf_counter() - step_started
            if self.metrics is not None:
                self._round_timer.observe(seconds)
                self._engine_round_timer.observe(seconds)
        if self.metrics is not None:
            self._rounds_counter.inc(trials)
            self._engine_rounds_counter.inc(trials)
            self._interactions_counter.inc(trials * current.shape[1])
            self._proposals_counter.inc(trials)
        if journal is not None:
            journal.emit(
                "round_end",
                round=round_index,
                gain=float(gains.sum()),
                trials=trials,
                engine=ENGINE_NAME,
            )
        return StackedStepOutcome(members=members, updated=updated, gains=gains, seconds=seconds)

    def __repr__(self) -> str:
        return (
            f"StackedRoundKernel(policy={self.policy_label!r}, mode={self.mode.name!r}, "
            f"gain={self.gain_fn!r})"
        )
