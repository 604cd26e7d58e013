"""Multi-parameter grids: Cartesian-product sensitivity analyses.

A one-dimensional :func:`~repro.experiments.sweep.sweep` regenerates the
paper's figures; a :func:`grid` crosses several parameters to study their
*interaction* (e.g. does DyGroups' advantage over random grouping depend
jointly on ``r`` and ``k``?) — the sensitivity analyses behind the
extended benches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.experiments.runner import _run_specs
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import SWEEPABLE

__all__ = ["GridCell", "run_grid", "grid_table"]


@dataclass(frozen=True)
class GridCell:
    """One grid point's averaged results.

    Attributes:
        parameters: the parameter values of this cell.
        gains: mean total gain per algorithm.
    """

    parameters: dict[str, Any]
    gains: dict[str, float]

    def advantage(self, algorithm: str, reference: str) -> float:
        """Gain ratio of ``algorithm`` over ``reference`` in this cell."""
        denominator = self.gains[reference]
        if denominator == 0.0:  # noqa: DYG302 — exact zero guard
            raise ValueError(f"reference {reference!r} has zero gain in cell {self.parameters}")
        return self.gains[algorithm] / denominator


def run_grid(spec: ExperimentSpec, parameters: Mapping[str, Sequence]) -> list[GridCell]:
    """Run ``spec`` at every combination of the given parameter values.

    The whole (cell × run) cross product goes through one executor call,
    on ``spec.workers`` processes (serial for ``0`` or ``1``).

    Args:
        spec: the base configuration.
        parameters: mapping from sweepable field name (a subset of
            :data:`~repro.experiments.sweep.SWEEPABLE` plus ``mode`` and
            ``distribution``) to its value grid.

    Raises:
        ValueError: for unknown parameter names or empty grids.
    """
    allowed = set(SWEEPABLE) | {"mode", "distribution"}
    unknown = [name for name in parameters if name not in allowed]
    if unknown:
        raise ValueError(f"cannot grid over {unknown}; allowed: {sorted(allowed)}")
    if not parameters or any(len(values) == 0 for values in parameters.values()):
        raise ValueError("every grid dimension needs at least one value")

    names = list(parameters)
    combinations = [
        dict(zip(names, combination))
        for combination in itertools.product(*(parameters[name] for name in names))
    ]
    results = _run_specs([spec.with_(**overrides) for overrides in combinations], spec.workers)
    return [
        GridCell(
            parameters=overrides,
            gains={name: algo.mean_total_gain for name, algo in outcome.outcomes.items()},
        )
        for overrides, (outcome, _) in zip(combinations, results)
    ]


def grid_table(
    cells: Sequence[GridCell],
    *,
    algorithm: str = "dygroups",
    reference: str = "random",
    digits: int = 4,
) -> str:
    """Render a grid as an aligned table of ``algorithm/reference`` ratios."""
    if not cells:
        raise ValueError("no grid cells to render")
    names = list(cells[0].parameters)
    header = names + [f"{algorithm}/{reference}"]
    rows = [header]
    for cell in cells:
        row = [str(cell.parameters[name]) for name in names]
        row.append(f"{cell.advantage(algorithm, reference):.{digits}f}")
        rows.append(row)
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    for r, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
        if r == 0:
            lines.append("  ".join("-" * widths[c] for c in range(len(header))))
    return "\n".join(lines)
