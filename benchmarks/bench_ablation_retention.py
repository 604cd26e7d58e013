"""Ablation A5 — retention feedback (Section VII / Observation III).

Closes the loop the paper leaves open: when participants may quit (with
gain-dependent retention) and dropouts stop teaching, how do the policies
compare on cohort welfare and on final retention?  DyGroups' wide spread
of learning should keep both its learners and its teaching capital.
"""

from __future__ import annotations

import numpy as np

from repro.data.distributions import lognormal_skills
from repro.extensions.retention_feedback import simulate_with_retention
from repro.registry import build_policy

from benchmarks._util import BENCH_RUNS, FULL, emit

N = 5_000 if FULL else 1_000
ALPHA = 6
POLICIES = ("dygroups", "random", "percentile", "kmeans")
SEEDS = range(max(BENCH_RUNS * 3, 6))


def _run() -> dict[str, dict[str, float]]:
    summary: dict[str, dict[str, float]] = {}
    for name in POLICIES:
        gains = []
        retentions = []
        for seed in SEEDS:
            skills = lognormal_skills(N, seed=seed)
            policy = build_policy(name, mode="star", rate=0.5)
            result = simulate_with_retention(
                policy, skills, k=5, alpha=ALPHA, rate=0.5, seed=seed
            )
            gains.append(result.total_gain)
            retentions.append(result.final_retention)
        summary[name] = {
            "total_gain": float(np.mean(gains)),
            "final_retention": float(np.mean(retentions)),
        }
    return summary


def bench_ablation_retention_feedback(benchmark):
    summary = benchmark.pedantic(_run, iterations=1, rounds=1)
    lines = [
        f"Ablation A5: retention feedback (star, n={N}, alpha={ALPHA}, r=0.5)",
        f"{'policy':<14}{'cohort gain':>14}{'final retention':>17}",
    ]
    for name, stats in summary.items():
        lines.append(
            f"{name:<14}{stats['total_gain']:>14.6g}{stats['final_retention']:>17.3f}"
        )
    emit("ablation_retention", "\n".join(lines))

    # DyGroups leads on cohort welfare and does not lose on retention.
    gains = {name: stats["total_gain"] for name, stats in summary.items()}
    assert gains["dygroups"] == max(gains.values())
    assert (
        summary["dygroups"]["final_retention"]
        >= min(stats["final_retention"] for stats in summary.values()) - 1e-9
    )
