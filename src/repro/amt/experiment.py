"""The two human-subject experiments of Section V-A, simulated.

Experiment-1: 64 recruits, split into two matched populations of 32 that
follow DyGroups and K-Means respectively, with ``k = 4`` groups,
``r = 0.5``, ``α = 3`` rounds.  Experiment-2: 128 recruits, four matched
populations of 32 following DyGroups, K-Means, LPA and
Percentile-Partitions, ``α = 2``.

Protocol per population and round (mirroring the paper's HIT loop):

1. *Assessment* — every active worker takes a 10-question test; the
   Laplace-smoothed score is the skill estimate the policy sees.
2. *Group formation* — the population's policy groups the participating
   workers on the estimated skills.
3. *Peer learning* — latent skills advance per the interaction mode.
4. *Retention* — each active worker independently stays with a
   gain-dependent probability (:class:`~repro.amt.retention.RetentionModel`).

If dropouts leave the active count indivisible by ``k``, a random subset
of that size sits the round out (they remain active, learn nothing);
if fewer than ``2k`` workers remain, learning stops and the trace goes
flat — exactly what an under-enrolled HIT round would look like.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.amt.assessment import DEFAULT_QUESTIONS, estimate_skills
from repro.amt.population import Population, matched_split
from repro.amt.retention import RetentionModel
from repro.amt.worker import make_workers
from repro.core.interactions import get_mode
from repro.core.gain_functions import LinearGain
from repro.core.simulation import GroupingPolicy

__all__ = [
    "AmtConfig",
    "PopulationTrace",
    "AmtExperimentResult",
    "run_population",
    "run_experiment_1",
    "run_experiment_2",
    "welch_t_statistic",
    "EXPERIMENT_1_POLICIES",
    "EXPERIMENT_2_POLICIES",
]

#: Policy line-up of Experiment-1.
EXPERIMENT_1_POLICIES: tuple[str, ...] = ("dygroups", "kmeans")
#: Policy line-up of Experiment-2.
EXPERIMENT_2_POLICIES: tuple[str, ...] = ("dygroups", "kmeans", "lpa", "percentile")


@dataclass(frozen=True)
class AmtConfig:
    """Parameters of one simulated AMT deployment.

    Defaults follow the paper's justified choices: ``r = 0.5``, ``k = 4``
    groups over populations of 32, star interactions, 10-question HITs.
    """

    population_size: int = 32
    k: int = 4
    rate: float = 0.5
    alpha: int = 3
    #: The paper asks workers to "answer the questions collaboratively, by
    #: consulting with the rest of their peers in their group" — all-pairs
    #: interaction, i.e. the Clique mode.
    mode: str = "clique"
    questions: int = DEFAULT_QUESTIONS
    retention: RetentionModel = field(default_factory=RetentionModel)
    skill_mean: float = 0.45
    skill_spread: float = 0.22

    def __post_init__(self) -> None:
        if self.population_size % self.k != 0:
            raise ValueError(
                f"population_size={self.population_size} must be divisible by k={self.k}"
            )
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")


@dataclass
class PopulationTrace:
    """Per-round measurements for one population.

    Attributes:
        policy_name: the grouping policy the population followed.
        mean_scores: mean assessment estimate of the *whole cohort*,
            indexed by round — entry 0 is the pre-qualification, entry
            ``t`` the post-assessment after round ``t`` (length ``α+1``).
            Dropped-out workers keep their last latent skill, so the
            series measures total educational welfare without survivor
            bias (a cohort that retains weak learners is not penalized).
        round_gains: aggregate latent learning gain per round (length α).
        retention: fraction of the original cohort active after each
            round, starting at 1.0 (length ``α + 1``).
    """

    policy_name: str
    mean_scores: list[float] = field(default_factory=list)
    round_gains: list[float] = field(default_factory=list)
    retention: list[float] = field(default_factory=list)

    @property
    def total_gain(self) -> float:
        """Aggregate latent gain across all rounds."""
        return float(sum(self.round_gains))


@dataclass
class AmtExperimentResult:
    """Outcome of one simulated experiment (all populations)."""

    config: AmtConfig
    traces: dict[str, PopulationTrace]

    def ranking(self) -> list[str]:
        """Policy names sorted by total gain, best first."""
        return sorted(self.traces, key=lambda name: self.traces[name].total_gain, reverse=True)


def run_population(
    population: Population,
    policy: GroupingPolicy,
    config: AmtConfig,
    rng: np.random.Generator,
) -> PopulationTrace:
    """Run the α-round HIT loop for one population; see module docstring."""
    mode = get_mode(config.mode)
    gain_fn = LinearGain(config.rate)
    policy.reset()
    trace = PopulationTrace(policy_name=population.name)

    pre_estimates = estimate_skills(
        population.latent_skills(), rng, questions=config.questions
    )
    trace.mean_scores.append(float(pre_estimates.mean()))
    trace.retention.append(population.retention_fraction())

    for _ in range(config.alpha):
        active = population.active_workers
        participating_count = (len(active) // config.k) * config.k
        round_gain = 0.0
        if participating_count >= 2 * config.k:
            chosen_idx = rng.choice(len(active), size=participating_count, replace=False)
            chosen = [active[i] for i in chosen_idx]
            latents = np.array([w.latent_skill for w in chosen], dtype=np.float64)
            estimates = estimate_skills(latents, rng, questions=config.questions)
            grouping = policy.propose(estimates, config.k, rng)
            # The AMT protocol groups on noisy *estimates* but learning
            # acts on *latent* skills — two different arrays, which no
            # round kernel models (kernels propose and update the same
            # vector, and their gain would count estimation error).
            updated = mode.update(latents, grouping, gain_fn)  # noqa: DYG204
            for worker, new_latent in zip(chosen, updated):
                worker.learn(float(new_latent))
            round_gain = float(np.sum(updated - latents))
            sitting_out = [w for i, w in enumerate(active) if i not in set(chosen_idx.tolist())]
            for worker in sitting_out:
                worker.learn(worker.latent_skill)
        else:
            for worker in active:
                worker.learn(worker.latent_skill)
        trace.round_gains.append(round_gain)

        # Post-assessment over the whole cohort (see PopulationTrace).
        post = estimate_skills(population.latent_skills(), rng, questions=config.questions)
        trace.mean_scores.append(float(post.mean()))

        # Retention draw: gain normalized by the largest increment the
        # learning rate allows on the unit skill scale.
        normalized = np.array([w.last_gain for w in active], dtype=np.float64) / config.rate
        stays = config.retention.sample_stays(normalized, rng)
        for worker, stay in zip(active, stays):
            worker.active = bool(stay)
        trace.retention.append(population.retention_fraction())
    return trace


def _run_experiment(
    policies: tuple[str, ...],
    config: AmtConfig,
    seed: int | None,
) -> AmtExperimentResult:
    # Imported here: the registry reaches this module through the
    # extensions package, so a module-level import would be circular.
    from repro.registry import build_policy

    rng = np.random.default_rng(seed)
    total = config.population_size * len(policies)
    workers = make_workers(total, rng, mean=config.skill_mean, spread=config.skill_spread)
    populations = matched_split(workers, list(policies), rng)
    traces: dict[str, PopulationTrace] = {}
    for population in populations:
        policy = build_policy(population.name, mode=config.mode, rate=config.rate)
        traces[population.name] = run_population(population, policy, config, rng)
    return AmtExperimentResult(config=config, traces=traces)


def run_experiment_1(seed: int | None = 0, config: AmtConfig | None = None) -> AmtExperimentResult:
    """Experiment-1: DyGroups vs K-Means, N = 64, α = 3 (Figures 1–3)."""
    config = config if config is not None else AmtConfig(alpha=3)
    return _run_experiment(EXPERIMENT_1_POLICIES, config, seed)


def run_experiment_2(seed: int | None = 0, config: AmtConfig | None = None) -> AmtExperimentResult:
    """Experiment-2: four policies, N = 128, α = 2 (Figure 4)."""
    config = config if config is not None else AmtConfig(alpha=2)
    if config.alpha != 2:
        config = replace(config, alpha=2)
    return _run_experiment(EXPERIMENT_2_POLICIES, config, seed)


def welch_t_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> tuple[float, float]:
    """Welch's t statistic and two-sided p-value for unequal variances.

    Used to reproduce the paper's statistical-significance claims
    (Observation II) without a scipy dependency in the core package.
    Returns ``(t, p)``.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least two observations")
    var_a = a.var(ddof=1) / a.size
    var_b = b.var(ddof=1) / b.size
    pooled = var_a + var_b
    if pooled == 0.0:  # noqa: DYG302 — exact zero guard
        raise ValueError("both samples are constant; t statistic undefined")
    t = float((a.mean() - b.mean()) / np.sqrt(pooled))
    df = pooled**2 / (var_a**2 / (a.size - 1) + var_b**2 / (b.size - 1))
    p = float(2.0 * _student_t_sf(abs(t), df))
    return t, p


def _student_t_sf(t: float, df: float) -> float:
    """Survival function of Student's t via the regularized incomplete beta.

    ``P(T > t) = I_{df/(df+t²)}(df/2, 1/2) / 2`` for ``t ≥ 0``.
    """
    x = df / (df + t * t)
    return 0.5 * _reg_inc_beta(df / 2.0, 0.5, x)


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)`` by continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    import math

    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(log_front)
    if x > (a + 1.0) / (a + b + 2.0):
        # Use the symmetry relation for faster convergence.
        return 1.0 - _reg_inc_beta(b, a, 1.0 - x)
    # Lentz's continued-fraction evaluation.
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(200):
        m = i // 2
        if i == 0:
            numerator = 1.0
        elif i % 2 == 0:
            numerator = (m * (b - m) * x) / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            numerator = -((a + m) * (a + b + m) * x) / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + numerator * d
        d = tiny if abs(d) < tiny else d
        d = 1.0 / d
        c = 1.0 + numerator / c
        c = tiny if abs(c) < tiny else c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return front * (f - 1.0) / a
