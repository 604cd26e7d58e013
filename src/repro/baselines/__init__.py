"""Baseline grouping algorithms from the paper's evaluation (Section V-B1).

* :class:`RandomAssignment` — uniformly random equi-sized groups;
* :class:`KMeansGrouping` — random centers + capacity-constrained nearest
  assignment (the paper's own heuristic baseline);
* :class:`PercentilePartitions` — Agrawal et al. (EDM 2017), ``p = 0.75``;
* :class:`LpaGrouping` — Esfandiari et al. (KDD 2019), affinity-free
  local-search core (see DESIGN.md §4);
* :class:`StaticPolicy` — one-shot grouping replayed for all rounds;
* :class:`ArbitraryLocalOptimum` — star-round-optimal grouping without the
  variance tie-break (ablation);
* :func:`brute_force_tdg` — exact exponential-time TDG solver.
"""

from repro.baselines.brute_force import (
    BruteForceResult,
    brute_force_tdg,
    count_equal_partitions,
    iter_equal_partitions,
)
from repro.baselines.annealing import AnnealingGrouping
from repro.baselines.kmeans import KMeansGrouping
from repro.baselines.local_optimum import STRATEGIES, ArbitraryLocalOptimum
from repro.baselines.lpa import LpaGrouping
from repro.baselines.percentile import PercentilePartitions
from repro.baselines.random_assignment import RandomAssignment
from repro.baselines.static import StaticPolicy

__all__ = [
    "AnnealingGrouping",
    "RandomAssignment",
    "KMeansGrouping",
    "PercentilePartitions",
    "LpaGrouping",
    "StaticPolicy",
    "ArbitraryLocalOptimum",
    "STRATEGIES",
    "BruteForceResult",
    "brute_force_tdg",
    "count_equal_partitions",
    "iter_equal_partitions",
]
