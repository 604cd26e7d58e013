"""Core model and algorithms of the TDG problem and the DyGroups framework.

Contents:

* :mod:`repro.core.gain_functions` — the 2-person learning-gain model;
* :mod:`repro.core.grouping` — validated group/grouping data structures;
* :mod:`repro.core.interactions` — Star and Clique interaction modes;
* :mod:`repro.core.update` — O(n) skill-update engines (Theorem 3);
* :mod:`repro.core.local` — round-local groupers (Algorithms 2 and 3);
* :mod:`repro.core.objective` — LG, the telescoped objective, b-distances;
* :mod:`repro.core.simulation` — the α-round engine and policy protocol;
* :mod:`repro.core.dygroups` — the DyGroups driver (Algorithm 1);
* :mod:`repro.core.batch` — batched DyGroups proposals;
* :mod:`repro.core.vectorized` — the stacked-trial engine (``R`` trials
  advance per round through batched kernels, bit-identical to scalar).
"""

from repro.core.batch import (
    BATCH_MODES,
    as_skills_matrix,
    descending_orders,
    flat_rank_listing,
    rank_structure,
)
from repro.core.dygroups import DyGroupsClique, DyGroupsStar, dygroups, dygroups_policy
from repro.core.gain_functions import GainFunction, LinearGain, pairwise_gain
from repro.core.grouping import Group, Grouping
from repro.core.interactions import MODES, Clique, InteractionMode, Star, get_mode
from repro.core.local import dygroups_clique_local, dygroups_star_local
from repro.core.objective import (
    b_distances,
    b_objective,
    gain_from_trajectory,
    learning_gain,
    total_learning_gain,
)
from repro.core.simulation import GroupingPolicy, SimulationResult, simulate
from repro.core.skills import SkillSummary, as_skill_array, descending_order, skill_variance, summarize
from repro.core.update import (
    group_max,
    update_clique,
    update_clique_naive,
    update_star,
    update_star_naive,
)
from repro.core.vectorized import (
    ENGINES,
    BatchSimulationResult,
    VectorizedPolicy,
    simulate_many,
    update_clique_many,
    update_star_many,
    vectorize_policy,
)

__all__ = [
    "GainFunction",
    "LinearGain",
    "pairwise_gain",
    "Group",
    "Grouping",
    "InteractionMode",
    "Star",
    "Clique",
    "MODES",
    "get_mode",
    "update_star",
    "update_clique",
    "update_star_naive",
    "update_clique_naive",
    "group_max",
    "dygroups_star_local",
    "dygroups_clique_local",
    "BATCH_MODES",
    "as_skills_matrix",
    "descending_orders",
    "flat_rank_listing",
    "rank_structure",
    "ENGINES",
    "BatchSimulationResult",
    "VectorizedPolicy",
    "simulate_many",
    "update_star_many",
    "update_clique_many",
    "vectorize_policy",
    "learning_gain",
    "total_learning_gain",
    "gain_from_trajectory",
    "b_distances",
    "b_objective",
    "GroupingPolicy",
    "SimulationResult",
    "simulate",
    "DyGroupsStar",
    "DyGroupsClique",
    "dygroups",
    "dygroups_policy",
    "as_skill_array",
    "descending_order",
    "skill_variance",
    "SkillSummary",
    "summarize",
]
