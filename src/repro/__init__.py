"""repro — reproduction of "Peer Learning Through Targeted Dynamic Groups
Formation" (Wei, Koutis, Basu Roy; ICDE 2021).

The package implements the Targeted Dynamic Grouping (TDG) problem, the
DyGroups greedy framework with its Star and Clique instantiations, every
baseline from the paper's evaluation, a simulated substitute for the
human-subject experiments, the experiment harness regenerating all
figures, numeric theorem verification, and the Section VII extensions.

Quickstart:

    >>> import numpy as np
    >>> from repro import dygroups
    >>> skills = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    >>> result = dygroups(skills, k=3, alpha=3, rate=0.5, mode="star")
    >>> round(result.total_gain, 2)
    2.55

See README.md for an architecture overview and DESIGN.md for the full
system inventory and experiment index.
"""

from repro.core import (
    Clique,
    DyGroupsClique,
    DyGroupsStar,
    GainFunction,
    Group,
    Grouping,
    GroupingPolicy,
    InteractionMode,
    LinearGain,
    SimulationResult,
    Star,
    b_objective,
    dygroups,
    dygroups_clique_local,
    dygroups_policy,
    dygroups_star_local,
    learning_gain,
    simulate,
    total_learning_gain,
)
from repro.baselines import (
    ArbitraryLocalOptimum,
    KMeansGrouping,
    LpaGrouping,
    PercentilePartitions,
    RandomAssignment,
    StaticPolicy,
    brute_force_tdg,
)
from repro.data import lognormal_skills, toy_example_skills, uniform_skills, zipf_skills
from repro.experiments import ExperimentSpec, run_spec, sweep
from repro.registry import build_policy

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "dygroups",
    "dygroups_policy",
    "dygroups_star_local",
    "dygroups_clique_local",
    "DyGroupsStar",
    "DyGroupsClique",
    "simulate",
    "SimulationResult",
    "GroupingPolicy",
    "Group",
    "Grouping",
    "GainFunction",
    "LinearGain",
    "InteractionMode",
    "Star",
    "Clique",
    "learning_gain",
    "total_learning_gain",
    "b_objective",
    # baselines
    "RandomAssignment",
    "KMeansGrouping",
    "PercentilePartitions",
    "LpaGrouping",
    "StaticPolicy",
    "ArbitraryLocalOptimum",
    "brute_force_tdg",
    # policy registry
    "build_policy",
    # data
    "toy_example_skills",
    "lognormal_skills",
    "zipf_skills",
    "uniform_skills",
    # experiments
    "ExperimentSpec",
    "run_spec",
    "sweep",
]
