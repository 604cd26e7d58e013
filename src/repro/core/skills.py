"""Skill-array helpers shared across the framework.

Participants are represented positionally: participant ``i`` owns entry
``i`` of a 1-D ``float64`` numpy array of strictly positive skills (see
Section II).  This module provides the small, heavily reused helpers for
those arrays — coercion/validation, stable descending ordering, and a
summary snapshot used by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import as_skill_array

__all__ = ["as_skill_array", "descending_order", "skill_variance", "SkillSummary", "summarize"]


def descending_order(skills: np.ndarray) -> np.ndarray:  # noqa: DYG201 — hot path; inputs validated at the public entry points
    """Indices that sort ``skills`` in descending order (stable).

    Stability matters for reproducibility: participants with equal skills
    keep their index order, so groupers are deterministic functions of the
    input array.
    """
    # argsort is ascending and stable under kind="stable"; negating indices
    # would break stability, so sort ascending and reverse blocks of equal
    # values implicitly by sorting on the negated values with a stable sort.
    # Strictly positive doubles order identically to their int64 bit views
    # (one bit pattern per value — no signed zeros in the skill domain).
    # numpy's stable sort of int64 keys is timsort, as for floats: same
    # permutation, and on 10^5 log-normal values 11.4 ms against 13.6 ms
    # for the float keys (docs/performance.md).  Anything outside the
    # validated domain takes the float sort.
    array = np.ascontiguousarray(skills, dtype=np.float64)
    if array.size and np.all(array > 0.0):
        return np.argsort(-array.view(np.int64), kind="stable")
    return np.argsort(-array, kind="stable")


def skill_variance(skills: np.ndarray) -> float:  # noqa: DYG201 — hot path; inputs validated at the public entry points
    """Population variance of the skill values (Theorem 2's tie-break)."""
    return float(np.var(np.asarray(skills, dtype=np.float64)))


@dataclass(frozen=True, slots=True)
class SkillSummary:
    """Snapshot statistics of a skill array."""

    n: int
    total: float
    mean: float
    variance: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.n} total={self.total:.6g} mean={self.mean:.6g} "
            f"var={self.variance:.6g} min={self.minimum:.6g} max={self.maximum:.6g}"
        )


def summarize(skills: np.ndarray) -> SkillSummary:
    """Compute a :class:`SkillSummary` for ``skills``."""
    array = np.asarray(skills, dtype=np.float64)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("skills must be a non-empty 1-D array")
    return SkillSummary(
        n=int(array.size),
        total=float(array.sum()),
        mean=float(array.mean()),
        variance=float(array.var()),
        minimum=float(array.min()),
        maximum=float(array.max()),
    )
