"""Simulated-annealing one-shot grouper (the OR-literature approach).

The paper's related work (Section VI) notes that the operations-research
community formalizes group formation as integer programming "often solved
using simulated annealing [12] … or genetic algorithms [14]".  This
module implements that classic approach as an additional baseline: a
per-round simulated-annealing search over equi-sized partitions that
maximizes the round's learning gain, applied independently each round
like the other one-shot baselines.

Compared with LPA's pure hill-climbing, annealing also *accepts worsening
swaps* with temperature-controlled probability, escaping local optima at
the cost of more evaluations — the classic trade-off this baseline
exists to measure.
"""

from __future__ import annotations

import math

import numpy as np

from repro._validation import (
    require_divisible_groups,
    require_int_in_range,
    require_learning_rate,
)
from repro.baselines._round_gain import group_gain_sorted
from repro.core.grouping import Grouping
from repro.core.interactions import InteractionMode, get_mode
from repro.core.simulation import GroupingPolicy

__all__ = ["MAX_STEPS", "AnnealingGrouping"]

#: Most annealing steps one round may run: the default budget's own cap.
#: Every step is a Python-level swap, so a served round at this bound
#: already takes seconds.
MAX_STEPS = 60_000


class _GroupState:
    """One group's members and values, co-sorted by descending value."""

    __slots__ = ("members", "values", "gain")

    def __init__(self, members: np.ndarray, values: np.ndarray, gain: float) -> None:
        self.members = members
        self.values = values
        self.gain = gain

    def replaced(self, position: int, new_member: int, new_value: float) -> tuple[np.ndarray, np.ndarray]:
        values = np.delete(self.values, position)
        members = np.delete(self.members, position)
        insert_at = len(values) - int(np.searchsorted(values[::-1], new_value, side="left"))
        return (
            np.insert(members, insert_at, new_member),
            np.insert(values, insert_at, new_value),
        )


class AnnealingGrouping(GroupingPolicy):
    """Per-round simulated annealing on the round's learning gain.

    Args:
        mode: interaction mode whose round gain is optimized; must match
            the simulation's mode.
        rate: linear learning rate used for gain scoring.
        steps: annealing steps per round, at most :data:`MAX_STEPS`;
            ``None`` scales as ``min(30·n, MAX_STEPS)``.
        initial_temperature: starting temperature, as a fraction of the
            initial round gain (adaptive scale).
        cooling: geometric cooling factor per step, in (0, 1).
    """

    name = "annealing"

    def __init__(
        self,
        mode: "str | InteractionMode",
        rate: float,
        *,
        steps: int | None = None,
        initial_temperature: float = 0.05,
        cooling: float = 0.999,
    ) -> None:
        self._mode_name = get_mode(mode).name
        self._rate = require_learning_rate(rate)
        if steps is not None:
            steps = require_int_in_range(steps, name="steps", low=1, high=MAX_STEPS)
        self._steps = steps
        if initial_temperature <= 0:
            raise ValueError(f"initial_temperature must be positive, got {initial_temperature}")
        if not 0.0 < cooling < 1.0:
            raise ValueError(f"cooling must lie in (0, 1), got {cooling}")
        self._initial_temperature = float(initial_temperature)
        self._cooling = float(cooling)

    @property
    def required_mode(self) -> str:
        """The interaction mode this policy's objective assumes."""
        return self._mode_name

    def propose(self, skills: np.ndarray, k: int, rng: np.random.Generator) -> Grouping:
        n = len(skills)
        size = require_divisible_groups(n, k)
        steps = self._steps if self._steps is not None else min(30 * n, MAX_STEPS)

        order = rng.permutation(n)
        states: list[_GroupState] = []
        for gi in range(k):
            members = order[gi * size : (gi + 1) * size]
            values = skills[members]
            desc = np.argsort(-values, kind="stable")
            members, values = members[desc], values[desc]
            states.append(
                _GroupState(members, values, group_gain_sorted(values, self._rate, self._mode_name))
            )

        current_total = sum(s.gain for s in states)
        best_total = current_total
        best_snapshot = [(s.members.copy(), s.values.copy(), s.gain) for s in states]
        temperature = max(self._initial_temperature * max(current_total, 1e-9), 1e-12)

        for _ in range(steps):
            g1, g2 = rng.choice(k, size=2, replace=False)
            s1, s2 = states[g1], states[g2]
            p1 = int(rng.integers(size))
            p2 = int(rng.integers(size))
            v1, v2 = float(s1.values[p1]), float(s2.values[p2])
            if v1 != v2:
                m1, nv1 = s1.replaced(p1, int(s2.members[p2]), v2)
                m2, nv2 = s2.replaced(p2, int(s1.members[p1]), v1)
                gain1 = group_gain_sorted(nv1, self._rate, self._mode_name)
                gain2 = group_gain_sorted(nv2, self._rate, self._mode_name)
                delta = (gain1 + gain2) - (s1.gain + s2.gain)
                if delta >= 0 or rng.random() < math.exp(delta / temperature):
                    states[g1] = _GroupState(m1, nv1, gain1)
                    states[g2] = _GroupState(m2, nv2, gain2)
                    current_total += delta
                    if current_total > best_total:
                        best_total = current_total
                        best_snapshot = [
                            (s.members.copy(), s.values.copy(), s.gain) for s in states
                        ]
            temperature = max(temperature * self._cooling, 1e-12)

        return Grouping(members for members, _, _ in best_snapshot)

    def __repr__(self) -> str:
        return (
            f"AnnealingGrouping(mode={self._mode_name!r}, rate={self._rate}, "
            f"steps={self._steps}, T0={self._initial_temperature}, cooling={self._cooling})"
        )
