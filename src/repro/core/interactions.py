"""Interaction modes (Star and Clique) as strategy objects.

An :class:`InteractionMode` bundles the three mode-specific operations the
framework needs:

* :meth:`~InteractionMode.update` — apply one round of within-group
  learning to the full skill array (``UPDATE-SKILLS-MODE`` in Algorithm 1);
* :meth:`~InteractionMode.group_gain` — the learning gain ``g(x)`` of one
  group (Equations 1 and 2);
* :meth:`~InteractionMode.round_gain` — the aggregated gain ``LG(G)`` of a
  grouping (Equation 3).

Because every 2-person interaction only *adds* skill, the aggregated gain
of a round always equals the total skill increase, so ``round_gain`` is
computed as ``sum(update(s) − s)`` — an identity the test suite verifies
against the literal per-group formulas.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.gain_functions import GainFunction
from repro.core.grouping import Group, Grouping
from repro.core.update import update_clique, update_star

__all__ = ["InteractionMode", "Star", "Clique", "get_mode", "MODES"]


class InteractionMode(abc.ABC):
    """Abstract interaction mode; see module docstring."""

    #: Canonical lower-case mode name (``"star"`` / ``"clique"``).
    name: str = ""

    @abc.abstractmethod
    def update(self, skills: np.ndarray, grouping: Grouping, gain: GainFunction) -> np.ndarray:
        """Return the post-round skill array (input is not mutated)."""

    @abc.abstractmethod
    def group_gain(self, skills: np.ndarray, group: Group, gain: GainFunction) -> float:
        """Learning gain ``g(x)`` of a single group (per-group formula)."""

    def round_gain(self, skills: np.ndarray, grouping: Grouping, gain: GainFunction) -> float:
        """Aggregated learning gain ``LG(G)`` of a grouping (Equation 3)."""
        return float(np.sum(self.update(skills, grouping, gain) - skills))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))


class Star(InteractionMode):
    """Star mode: every member learns only from the group's teacher.

    The group gain (Equation 1) is ``Σ_{j≠1} f(p_1 → p_j)`` where ``p_1``
    is the group's highest-skilled member.
    """

    name = "star"

    def update(self, skills: np.ndarray, grouping: Grouping, gain: GainFunction) -> np.ndarray:
        return update_star(skills, grouping, gain)

    def group_gain(self, skills: np.ndarray, group: Group, gain: GainFunction) -> float:
        values = skills[group.indices()]
        teacher = float(values.max())
        return float(np.sum(gain.directed_gain(teacher, values)))


class Clique(InteractionMode):
    """Clique mode: all pairwise interactions; averaged positive gains.

    The group gain (Equation 2) credits each member with the *average* of
    its positive pairwise gains, which preserves within-group skill order.
    """

    name = "clique"

    def update(self, skills: np.ndarray, grouping: Grouping, gain: GainFunction) -> np.ndarray:
        return update_clique(skills, grouping, gain)

    def group_gain(self, skills: np.ndarray, group: Group, gain: GainFunction) -> float:
        if not gain.is_linear:
            return self._group_gain_reference(skills, group, gain)
        # Theorem 3 for linear gains: the rank-i member's averaged gain is
        # r·(c_{i−1} − (i−1)·s_i)/(i−1) with c the descending prefix sums,
        # so the per-group total needs one vectorized pass, not O(t²)
        # pairwise calls.  Tie order cannot affect the sum (equal values
        # sort to identical arrays), so a plain descending sort suffices.
        values = np.sort(np.asarray(skills, dtype=np.float64)[group.indices()])[::-1]
        if values.size < 2:
            return 0.0
        rate: float = gain.rate  # type: ignore[attr-defined]
        prefix = np.cumsum(values)
        ranks = np.arange(1, values.size, dtype=np.float64)
        return float(np.sum(rate * (prefix[:-1] - ranks * values[1:]) / ranks))

    def _group_gain_reference(self, skills: np.ndarray, group: Group, gain: GainFunction) -> float:
        # Equation 2 literally: the rank-i member averages its pairwise
        # gains over (i − 1); ties are ranked stably by member index.
        ranked = sorted(group, key=lambda m: (-float(skills[m]), m))
        values = [float(skills[m]) for m in ranked]
        total = 0.0
        for i in range(1, len(values)):
            s = values[i]
            total += sum(gain.directed_gain(v, s) for v in values[:i]) / i
        return total


#: Registry of the canonical interaction modes by name.
MODES: dict[str, InteractionMode] = {"star": Star(), "clique": Clique()}


def get_mode(mode: "str | InteractionMode") -> InteractionMode:
    """Resolve a mode given by name or instance.

    Accepts ``"star"``/``"clique"`` (case-insensitive) or an
    :class:`InteractionMode` instance, which is returned unchanged.
    """
    if isinstance(mode, InteractionMode):
        return mode
    if isinstance(mode, str):
        try:
            return MODES[mode.lower()]
        except KeyError:
            raise ValueError(f"unknown interaction mode {mode!r}; expected one of {sorted(MODES)}") from None
    raise TypeError(f"mode must be a string or InteractionMode, got {type(mode).__name__}")
