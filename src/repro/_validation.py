"""Shared argument-validation helpers.

Every public entry point in :mod:`repro` validates its inputs eagerly and
raises :class:`ValueError` / :class:`TypeError` with actionable messages.
Centralizing the checks keeps the error vocabulary consistent across the
core model, the baselines, and the experiment harness.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "as_skill_array",
    "require_positive_int",
    "require_int_in_range",
    "require_learning_rate",
    "require_probability",
    "require_divisible_groups",
]


def _as_float(value: float, *, name: str) -> float:
    """``float(value)``, reporting an int too large for a double as a ``ValueError``."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is too large to represent as a float") from exc


def as_skill_array(skills: Sequence[float] | np.ndarray, *, name: str = "skills") -> np.ndarray:
    """Coerce ``skills`` to a fresh 1-D ``float64`` array of positive values.

    The paper's model (Section II) requires every skill to be a positive real
    number.  A *copy* is always returned so callers can mutate the result
    without aliasing the caller's data.

    Raises:
        TypeError: if ``skills`` cannot be interpreted as a numeric sequence.
        ValueError: if it is empty, not 1-D, non-finite, or non-positive.
    """
    try:
        array = np.array(skills, dtype=np.float64, copy=True)
    except OverflowError as exc:
        raise ValueError(f"{name} must contain only finite values") from exc
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a sequence of numbers, got {type(skills).__name__}") from exc
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must contain only finite values")
    if np.any(array <= 0.0):
        raise ValueError(f"{name} must be strictly positive (the model assumes positive skill levels)")
    return array


def require_positive_int(value: int, *, name: str) -> int:
    """Validate that ``value`` is a positive ``int`` (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def require_int_in_range(value: int, *, name: str, low: int, high: int) -> int:
    """Validate that ``value`` is an ``int`` in the closed range [low, high]."""
    value = require_positive_int(value, name=name) if low > 0 else int(value)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def require_learning_rate(rate: float, *, name: str = "rate") -> float:
    """Validate the learning-rate parameter ``r``.

    The paper restricts ``r`` to the open interval (0, 1) (it explicitly
    omits the degenerate case ``r = 1``; Section II, footnote 5).
    """
    if isinstance(rate, bool) or not isinstance(rate, (int, float, np.floating, np.integer)):
        raise TypeError(f"{name} must be a float, got {type(rate).__name__}")
    rate = _as_float(rate, name=name)
    if not 0.0 < rate < 1.0:
        raise ValueError(f"{name} must lie in the open interval (0, 1), got {rate}")
    return rate


def require_probability(value: float, *, name: str) -> float:
    """Validate a probability-like parameter in the closed interval [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
        raise TypeError(f"{name} must be a float, got {type(value).__name__}")
    value = _as_float(value, name=name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def require_divisible_groups(n: int, k: int) -> int:
    """Validate ``k`` groups over ``n`` members and return the group size.

    The TDG formulation (Problem 1) requires ``k`` non-overlapping
    *equi-sized* groups, hence ``k`` must divide ``n`` and every group must
    hold at least two members (a singleton group cannot learn).
    """
    n = require_positive_int(n, name="n")
    k = require_positive_int(k, name="k")
    if k > n:
        raise ValueError(f"cannot form k={k} groups from n={n} members")
    if n % k != 0:
        raise ValueError(f"k={k} must divide n={n} to form equi-sized groups")
    size = n // k
    if size < 2:
        raise ValueError(f"group size n/k must be at least 2 for learning to occur, got {size}")
    return size
