"""``LPA`` baseline (after Esfandiari et al., KDD 2019).

The original LPA optimizes *one-shot* group formation for peer learning
with member affinities.  No open-source implementation or affinity data
exists, so this module implements it as its affinity-free core: a
swap-based local search that maximizes the current round's aggregated
learning gain, re-run independently every round (see DESIGN.md §4).

This gives the evaluation the same contrast the paper draws: a strong
per-round one-shot grouper that approaches round-local optimality but —
unlike DyGroups — without the variance-maximizing tie-break that pays off
across rounds.

The search keeps each group's member ids and skill values co-sorted in
descending order so a candidate swap is scored in ``O(t)`` numpy work.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    require_divisible_groups,
    require_int_in_range,
    require_learning_rate,
    require_positive_int,
)
from repro.baselines._round_gain import group_gain_sorted
from repro.core.grouping import Grouping
from repro.core.interactions import InteractionMode, get_mode
from repro.core.simulation import GroupingPolicy

__all__ = ["MAX_EVALS", "LpaGrouping"]

_IMPROVEMENT_TOL = 1e-12

#: Most candidate swaps one round may evaluate: the default budget's own
#: cap.  Every evaluation is a Python-level swap, so this bounds how long
#: one round (and one served advance) can run.
MAX_EVALS = 100_000


class _GroupState:
    """One group's members and values, co-sorted by descending value."""

    __slots__ = ("members", "values", "gain")

    def __init__(self, members: np.ndarray, values: np.ndarray, gain: float) -> None:
        self.members = members
        self.values = values
        self.gain = gain

    def replaced(self, position: int, new_member: int, new_value: float) -> tuple[np.ndarray, np.ndarray]:
        """Member/value arrays after swapping out the entry at ``position``."""
        values = np.delete(self.values, position)
        members = np.delete(self.members, position)
        # Insertion point that keeps the array descending.
        insert_at = len(values) - int(np.searchsorted(values[::-1], new_value, side="left"))
        values = np.insert(values, insert_at, new_value)
        members = np.insert(members, insert_at, new_member)
        return members, values


class LpaGrouping(GroupingPolicy):
    """Per-round swap local search on the round's learning gain.

    Args:
        mode: interaction mode whose round gain is optimized; must match
            the mode passed to :func:`repro.core.simulation.simulate`.
        rate: linear learning rate used for gain scoring.
        max_evals: cap on candidate-swap evaluations per round, at most
            :data:`MAX_EVALS`; ``None`` scales with the population
            (``min(20·n, MAX_EVALS)``).
        patience: consecutive non-improving evaluations before stopping
            early; ``None`` scales as ``max(500, 2·n)``.
    """

    name = "lpa"

    def __init__(
        self,
        mode: "str | InteractionMode",
        rate: float,
        *,
        max_evals: int | None = None,
        patience: int | None = None,
    ) -> None:
        self._mode_name = get_mode(mode).name
        self._rate = require_learning_rate(rate)
        if max_evals is not None:
            max_evals = require_int_in_range(max_evals, name="max_evals", low=1, high=MAX_EVALS)
        if patience is not None:
            patience = require_positive_int(patience, name="patience")
        self._max_evals = max_evals
        self._patience = patience

    @property
    def required_mode(self) -> str:
        """The interaction mode this policy's objective assumes."""
        return self._mode_name

    def propose(self, skills: np.ndarray, k: int, rng: np.random.Generator) -> Grouping:
        n = len(skills)
        require_divisible_groups(n, k)
        max_evals = self._max_evals if self._max_evals is not None else min(20 * n, MAX_EVALS)
        patience = self._patience if self._patience is not None else max(500, 2 * n)

        order = rng.permutation(n)
        size = n // k
        states: list[_GroupState] = []
        for gi in range(k):
            members = order[gi * size : (gi + 1) * size]
            values = skills[members]
            desc = np.argsort(-values, kind="stable")
            members = members[desc]
            values = values[desc]
            states.append(
                _GroupState(members, values, group_gain_sorted(values, self._rate, self._mode_name))
            )

        fails = 0
        for _ in range(max_evals):
            if fails >= patience:
                break
            g1, g2 = rng.choice(k, size=2, replace=False)
            s1, s2 = states[g1], states[g2]
            p1 = int(rng.integers(size))
            p2 = int(rng.integers(size))
            v1 = float(s1.values[p1])
            v2 = float(s2.values[p2])
            if v1 == v2:
                fails += 1
                continue
            m1, nv1 = s1.replaced(p1, int(s2.members[p2]), v2)
            m2, nv2 = s2.replaced(p2, int(s1.members[p1]), v1)
            new_gain1 = group_gain_sorted(nv1, self._rate, self._mode_name)
            new_gain2 = group_gain_sorted(nv2, self._rate, self._mode_name)
            if new_gain1 + new_gain2 > s1.gain + s2.gain + _IMPROVEMENT_TOL:
                states[g1] = _GroupState(m1, nv1, new_gain1)
                states[g2] = _GroupState(m2, nv2, new_gain2)
                fails = 0
            else:
                fails += 1
        return Grouping(state.members for state in states)

    def __repr__(self) -> str:
        return (
            f"LpaGrouping(mode={self._mode_name!r}, rate={self._rate}, "
            f"max_evals={self._max_evals}, patience={self._patience})"
        )
