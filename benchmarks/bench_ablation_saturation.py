"""Ablation A6 — the r = 1 special case (footnote 5 / Section V-B2 remark).

The paper: "In the special case of r = 1 … it takes log_{n/k}(n) rounds
to make everyone reach the highest skill value for DYGROUPS and LPA."
This bench measures rounds-to-saturation for DyGroups and Random across
instance sizes and compares them with the closed-form bound.
"""

from __future__ import annotations

import numpy as np

from repro.core.dygroups import DyGroupsStar
from repro.data.distributions import uniform_skills
from repro.extensions.saturation import rounds_to_saturation_bound, simulate_full_rate
from repro.registry import build_policy

from benchmarks._util import FULL, emit

INSTANCES = ((64, 8), (100, 10), (1_000, 10), (4_096, 8)) + (((100_000, 10),) if FULL else ())


def _run() -> list[tuple[int, int, int, int, float]]:
    rows = []
    for n, k in INSTANCES:
        skills = uniform_skills(n, seed=0)
        bound = rounds_to_saturation_bound(n, k)
        dy = simulate_full_rate(DyGroupsStar(), skills, k=k, seed=0).rounds_to_saturation
        rnd = float(
            np.mean(
                [
                    simulate_full_rate(
                        build_policy("random"), skills, k=k, seed=s
                    ).rounds_to_saturation
                    for s in range(5)
                ]
            )
        )
        rows.append((n, k, bound, dy, rnd))
    return rows


def bench_ablation_saturation(benchmark):
    rows = benchmark.pedantic(_run, iterations=1, rounds=1)
    lines = [
        "Ablation A6: rounds to full saturation at r=1 (star mode)",
        f"{'n':>8}{'k':>6}{'log_(n/k)(n) bound':>20}{'dygroups':>10}{'random (mean)':>15}",
    ]
    for n, k, bound, dy, rnd in rows:
        lines.append(f"{n:>8}{k:>6}{bound:>20}{dy:>10}{rnd:>15.1f}")
    emit("ablation_saturation", "\n".join(lines))

    for n, k, bound, dy, rnd in rows:
        # DyGroups meets the paper's bound; random needs at least as long.
        assert dy <= bound
        assert rnd >= dy - 1e-9
