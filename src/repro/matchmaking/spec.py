"""Quota-bounded group specifications for the matchmaking layer.

A :class:`GroupSpec` declares one *kind* of cohort the matchmaker may
condense out of the arrival stream: the target size ``n`` and group
parameter ``k`` (exactly the fields ``POST /v1/cohorts`` takes), the
policy spec string, and the admission knobs that only exist in a
streaming world — the fill window (``min_fill`` / ``max_fill``, both
multiples of ``k``), the per-wave ``deadline_seconds``, and an optional
``max_cohorts`` quota after which further joins are rejected with
``429 capacity_exhausted``.

Like every other spec in the repo it is frozen, validated eagerly in
``__post_init__`` through :mod:`repro._validation`, and
JSON-round-trippable (``to_dict`` / ``from_dict``) so matchmaking
configurations live in ``ServeConfig.matchmaking`` payloads and CLI
flags, not in code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Mapping

from repro._validation import (
    require_divisible_groups,
    require_learning_rate,
    require_positive_int,
)
from repro.core.interactions import get_mode
from repro.registry import PolicySpec

__all__ = ["GroupSpec", "DEFAULT_SPEC_NAME"]

#: Name of the implicit spec a bare ``--matchmaking`` serves.
DEFAULT_SPEC_NAME = "default"

#: Spec names must be addressable in URL paths and JSON payloads.
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


def _require_positive_number(value: Any, *, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ValueError(f"{name} must be a positive number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GroupSpec:
    """One condensable cohort shape and its admission bounds.

    Attributes:
        name: spec identifier participants join with (``spec`` field of
            ``POST /v1/join``).
        n: target cohort size — the matchmaker condenses as soon as
            ``n`` compatible participants are pending.
        k: group-size parameter handed to the grouping policy; must
            divide ``n`` (and bound every condensed size).
        policy: registry :class:`~repro.registry.PolicySpec` string.
        mode: interaction mode (``"star"`` or ``"clique"``).
        rate: learning rate in (0, 1).
        seed: non-negative base seed; the ``i``-th cohort condensed from
            this spec is created with ``seed + i`` so matched cohorts are
            exactly reproducible offline.
        min_fill: smallest cohort a deadline flush may condense
            (multiple of ``k`` in ``[2*k, n]``; default ``2*k``, the
            smallest size that still gives every group two members).  A
            wave whose deadline fires below it expires instead.
        max_fill: largest cohort a deadline flush may condense
            (multiple of ``k`` in ``[min_fill, n]``; default ``n``).
        deadline_seconds: seconds a wave may wait before the condenser
            must either flush (``≥ min_fill`` pending) or expire it.
        max_cohorts: quota on condensed cohorts; ``None`` is unbounded.
            Joins beyond the quota are rejected with
            ``429 capacity_exhausted``.
    """

    name: str = DEFAULT_SPEC_NAME
    n: int = 30
    k: int = 5
    policy: str = "dygroups"
    mode: str = "star"
    rate: float = 0.5
    seed: int = 0
    min_fill: "int | None" = None
    max_fill: "int | None" = None
    deadline_seconds: float = 30.0
    max_cohorts: "int | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ValueError(
                f"spec name must match {_NAME_RE.pattern}, got {self.name!r}"
            )
        require_positive_int(self.n, name="n")
        require_positive_int(self.k, name="k")
        require_divisible_groups(self.n, self.k)
        PolicySpec.parse(self.policy)
        get_mode(self.mode)
        require_learning_rate(self.rate)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        _require_positive_number(self.deadline_seconds, name="deadline_seconds")
        for bound in ("min_fill", "max_fill"):
            value = getattr(self, bound)
            if value is None:
                continue
            require_positive_int(value, name=bound)
            if value % self.k != 0:
                raise ValueError(f"{bound} must be a multiple of k={self.k}, got {value}")
            if value > self.n:
                raise ValueError(f"{bound} must not exceed n={self.n}, got {value}")
            if value < 2 * self.k:
                raise ValueError(
                    f"{bound} must be at least 2*k={2 * self.k} so every group "
                    f"keeps two members, got {value}"
                )
        if self.fill_min > self.fill_max:
            raise ValueError(
                f"min_fill={self.fill_min} must not exceed max_fill={self.fill_max}"
            )
        if self.max_cohorts is not None:
            require_positive_int(self.max_cohorts, name="max_cohorts")

    @property
    def fill_min(self) -> int:
        """Resolved smallest deadline-condensable size (default ``2*k``)."""
        return 2 * self.k if self.min_fill is None else self.min_fill

    @property
    def fill_max(self) -> int:
        """Resolved largest deadline-condensable size (default ``n``)."""
        return self.n if self.max_fill is None else self.max_fill

    def cohort_payload(self, skills: "list[float]", cohort_index: int) -> dict[str, Any]:
        """The ``POST /v1/cohorts`` payload of this spec's next cohort."""
        return {
            "skills": skills,
            "k": self.k,
            "mode": self.mode,
            "rate": self.rate,
            "policy": self.policy,
            "seed": self.seed + cohort_index,
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation (fill bounds resolved)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "policy": self.policy,
            "mode": self.mode,
            "rate": self.rate,
            "seed": self.seed,
            "min_fill": self.fill_min,
            "max_fill": self.fill_max,
            "deadline_seconds": self.deadline_seconds,
        }
        if self.max_cohorts is not None:
            payload["max_cohorts"] = self.max_cohorts
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GroupSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"a group spec must be a mapping, got {type(payload).__name__}"
            )
        known = {
            "name",
            "n",
            "k",
            "policy",
            "mode",
            "rate",
            "seed",
            "min_fill",
            "max_fill",
            "deadline_seconds",
            "max_cohorts",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown group-spec fields: {sorted(unknown)}")
        return cls(**dict(payload))
