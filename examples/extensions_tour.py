"""Tour of the Section VII extensions.

The paper's discussion section sketches several directions beyond the
core model; this repository implements them all.  The tour runs each one
on a small cohort:

1. concave learning-gain functions (log / sqrt / power);
2. variable group sizes;
3. affinity-aware bi-criteria grouping with evolving affinities;
4. retention feedback (dropouts stop learning *and* teaching);
5. the r = 1 special case and its log_{n/k}(n) saturation bound;
6. heterogeneous per-participant learning rates.

Run:  python examples/extensions_tour.py
"""

from __future__ import annotations

import numpy as np

from repro import DyGroupsStar, dygroups, simulate
from repro.data import lognormal_skills, uniform_skills
from repro.extensions import (
    AffinityAwarePolicy,
    AffinityState,
    LogGain,
    PowerGain,
    SqrtGain,
    mean_within_group_affinity,
    rounds_to_saturation_bound,
    simulate_full_rate,
    simulate_variable,
    simulate_with_retention,
)


def concave_gains(skills: np.ndarray) -> None:
    print("1. concave learning-gain functions (star, k=5, alpha=5)")
    linear = dygroups(skills, k=5, alpha=5, rate=0.5).total_gain
    print(f"   linear   f(d)=0.5d             gain {linear:12.1f}")
    for label, gain in (
        ("log", LogGain(0.5)),
        ("sqrt", SqrtGain(0.5)),
        ("power(γ=.5)", PowerGain(0.5, gamma=0.5)),
    ):
        result = simulate(
            DyGroupsStar(), skills, k=5, alpha=5, mode="star", gain=gain, seed=0
        )
        print(f"   {label:<8} saturating            gain {result.total_gain:12.1f}")
    print("   -> concave gains learn less per gap; DyGroups runs unchanged\n")


def variable_sizes(skills: np.ndarray) -> None:
    print("2. variable group sizes (one big lecture group + small labs)")
    n = len(skills)
    equal = simulate_variable(skills, [n // 5] * 5, alpha=5, rate=0.5).total_gain
    lopsided = simulate_variable(
        skills, [n // 2, n // 8, n // 8, n // 8, n - n // 2 - 3 * (n // 8)],
        alpha=5, rate=0.5,
    ).total_gain
    print(f"   5 equal groups:      gain {equal:12.1f}")
    print(f"   1 big + 4 small:     gain {lopsided:12.1f}\n")


def affinity(skills: np.ndarray) -> None:  # noqa: DYG201 — simulate() validates the slice
    print("3. affinity-aware bi-criteria grouping (λ sweep; cohort of 100, k=10)")
    small = skills[:100]
    for weight in (0.0, 0.3, 0.6, 0.9):
        state = AffinityState(len(small), initial=0.1)
        policy = AffinityAwarePolicy(state, mode="star", rate=0.5, weight=weight, sweeps=2)
        result = simulate(policy, small, k=10, alpha=6, mode="star", rate=0.5, seed=0)
        affinity_level = mean_within_group_affinity(result.groupings[-1], state.matrix)
        regroupings = sum(a != b for a, b in zip(result.groupings, result.groupings[1:]))
        print(
            f"   λ={weight:.1f}: gain {result.total_gain:12.1f}   "
            f"affinity {affinity_level:.3f}   regroupings {regroupings}/5"
        )
    print("   -> raising λ trades learning gain for cohesive, bonded groups\n")


def retention(skills: np.ndarray) -> None:
    print("4. retention feedback (quitters stop teaching)")
    for name, policy in (("dygroups", DyGroupsStar()),):
        result = simulate_with_retention(policy, skills, k=5, alpha=6, rate=0.5, seed=0)
        curve = " -> ".join(f"{r:.0%}" for r in result.retention)
        print(f"   {name}: cohort gain {result.total_gain:.1f}, retention {curve}\n")


def saturation() -> None:
    print("5. the r = 1 special case (Section V-B2 remark)")
    for n, k in ((64, 8), (1000, 10)):
        skills = uniform_skills(n, seed=0)
        bound = rounds_to_saturation_bound(n, k)
        result = simulate_full_rate(DyGroupsStar(), skills, k=k, seed=0)
        print(
            f"   n={n:>5}, k={k:>3}: saturated in {result.rounds_to_saturation} rounds "
            f"(bound log_(n/k)(n) = {bound}); max-holders {result.max_holder_counts}"
        )
    print()


def heterogeneous(skills: np.ndarray) -> None:
    print("6. heterogeneous learning rates (rate-aware vs rate-blind, one round)")
    from repro.extensions import simulate_heterogeneous, update_star_heterogeneous

    # Draw the rates from an independent stream: reusing the skills' seed
    # would make rates perfectly rank-correlated with skills (both are
    # monotone transforms of the same normal draws), silently collapsing
    # the rate-aware and rate-blind groupings into one.
    rng = np.random.default_rng(1234)
    rates = np.clip(rng.normal(0.5, 0.25, len(skills)), 0.05, 0.95)
    aware = simulate_heterogeneous(skills, rates, k=5, alpha=1).total_gain
    blind_grouping = DyGroupsStar().propose(skills, 5, rng)
    blind_updated = update_star_heterogeneous(skills, rates, blind_grouping)
    blind = float(np.sum(blind_updated - skills))
    print(f"   rate-aware greedy: gain {aware:12.1f}")
    print(f"   rate-blind DyGroups: gain {blind:12.1f}   (edge {aware / blind:.2f}x)")
    print("   -> knowing who learns fast pays within a round; over many rounds")
    print("      the myopic matching loses its edge (ablation A9)\n")


def main() -> None:
    skills = lognormal_skills(1000, seed=4)
    concave_gains(skills)
    variable_sizes(skills)
    affinity(skills)
    retention(skills)
    saturation()
    heterogeneous(skills)


if __name__ == "__main__":
    main()
