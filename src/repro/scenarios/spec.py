"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one complete workload — how traffic
arrives (:class:`ArrivalSpec`), who the learners are
(:class:`PopulationSpec`), which grouping policy serves them, how many
rounds each cohort plays, and what service levels the run must meet
(:class:`SLOSpec`).  Every spec is JSON-round-trippable
(``to_dict``/``from_dict``/``to_json``/``from_json``) so scenarios live
in files, CI configs, and ``BENCH_scenario_<name>.json`` artifacts,
not in code.

The built-in :data:`CATALOG` holds three starter scenarios (see
SCENARIOS.md): ``smoke`` for CI, ``fig05b-rate`` replaying the paper's
fig05b grid point as Poisson traffic, and ``streaming-smoke`` driving
individual arrivals through the matchmaking layer (see
docs/matchmaking.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro._validation import (
    require_divisible_groups,
    require_learning_rate,
    require_positive_int,
)
from repro.core.interactions import get_mode
from repro.data.distributions import get_distribution
from repro.registry import PolicySpec

__all__ = [
    "ARRIVAL_KINDS",
    "CATALOG",
    "ArrivalSpec",
    "PopulationSpec",
    "SLOSpec",
    "ScenarioSpec",
    "load_scenario",
]

#: Supported traffic shapes.
ARRIVAL_KINDS = ("closed-loop", "poisson", "burst", "individual")


def _require_positive_number(value: Any, *, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ValueError(f"{name} must be a positive number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ArrivalSpec:
    """How requests arrive at the system.

    Attributes:
        kind: ``"closed-loop"`` (each sender issues its next request when
            the previous response returns), ``"poisson"`` (open-loop,
            exponential inter-arrival times at ``rate`` requests/second),
            ``"burst"`` (open-loop, ``burst_size`` simultaneous
            arrivals every ``burst_interval`` seconds), or
            ``"individual"`` (open-loop Poisson arrivals of *single
            participants* joining the matchmaking queue instead of
            whole-cohort requests; requires the serve-side matchmaking
            layer — see docs/matchmaking.md).
        rate: mean requests/second (``poisson`` and ``individual``).
        burst_size: arrivals per burst (``burst`` only).
        burst_interval: seconds between bursts (``burst`` only).
        concurrency: sender threads.  Closed-loop this *is* the client
            count; open-loop it bounds how many requests can be in
            flight from the generator side.
    """

    kind: str = "closed-loop"
    rate: "float | None" = None
    burst_size: "int | None" = None
    burst_interval: "float | None" = None
    concurrency: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(f"arrival kind must be one of {ARRIVAL_KINDS}, got {self.kind!r}")
        require_positive_int(self.concurrency, name="concurrency")
        if self.kind in ("poisson", "individual"):
            if self.rate is None:
                raise ValueError(f"{self.kind} arrivals require rate= (requests/second)")
            _require_positive_number(self.rate, name="rate")
        if self.kind == "burst":
            if self.burst_size is None or self.burst_interval is None:
                raise ValueError("burst arrivals require burst_size= and burst_interval=")
            require_positive_int(self.burst_size, name="burst_size")
            _require_positive_number(self.burst_interval, name="burst_interval")

    @property
    def open_loop(self) -> bool:
        """Whether arrivals follow a precomputed schedule (not responses)."""
        return self.kind != "closed-loop"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation (``None`` fields omitted)."""
        payload: dict[str, Any] = {"kind": self.kind, "concurrency": self.concurrency}
        for key in ("rate", "burst_size", "burst_interval"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArrivalSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        known = {"kind", "rate", "burst_size", "burst_interval", "concurrency"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown arrival fields: {sorted(unknown)}")
        return cls(**dict(payload))


@dataclass(frozen=True)
class PopulationSpec:
    """Who arrives: cohort sizing and the initial-skill model.

    Attributes:
        n: members per cohort.
        k: group-size parameter handed to the grouping policy
            (must divide ``n``).
        cohorts: how many concurrent cohorts the scenario creates.
        distribution: named skill distribution from
            :data:`repro.data.distributions.DISTRIBUTIONS`.
        mode: interaction mode (``"star"`` or ``"clique"``).
        rate: learning rate in (0, 1).
        skill_seed: base seed for the skill draws; cohort ``i`` draws
            with ``skill_seed + i`` so populations are reproducible and
            distinct.
    """

    n: int = 30
    k: int = 5
    cohorts: int = 3
    distribution: str = "lognormal"
    mode: str = "star"
    rate: float = 0.5
    skill_seed: int = 0

    def __post_init__(self) -> None:
        require_positive_int(self.n, name="n")
        require_positive_int(self.k, name="k")
        require_positive_int(self.cohorts, name="cohorts")
        require_divisible_groups(self.n, self.k)
        require_learning_rate(self.rate)
        get_distribution(self.distribution)
        get_mode(self.mode)
        if isinstance(self.skill_seed, bool) or not isinstance(self.skill_seed, int):
            raise ValueError(f"skill_seed must be an int, got {self.skill_seed!r}")

    def skills(self, cohort_index: int) -> np.ndarray:
        """The seeded initial-skill vector of cohort ``cohort_index``."""
        if not 0 <= cohort_index < self.cohorts:
            raise ValueError(
                f"cohort_index must be in [0, {self.cohorts}), got {cohort_index}"
            )
        draw = get_distribution(self.distribution)
        return draw(self.n, seed=self.skill_seed + cohort_index)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation."""
        return {
            "n": self.n,
            "k": self.k,
            "cohorts": self.cohorts,
            "distribution": self.distribution,
            "mode": self.mode,
            "rate": self.rate,
            "skill_seed": self.skill_seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PopulationSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        known = {"n", "k", "cohorts", "distribution", "mode", "rate", "skill_seed"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown population fields: {sorted(unknown)}")
        return cls(**dict(payload))


#: SLO target keys and the direction the observation must satisfy.
_SLO_FIELDS = (
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "min_throughput_rps",
    "max_error_rate",
    "time_to_match_p50_ms",
    "time_to_match_p95_ms",
)


@dataclass(frozen=True)
class SLOSpec:
    """Service-level targets a scenario run is judged against.

    Latency targets are upper bounds in milliseconds on the respective
    percentile of the total request latency; ``min_throughput_rps`` is a
    lower bound on sustained requests/second; ``max_error_rate`` an
    upper bound on ``errors / requests``; the ``time_to_match_*``
    targets are upper bounds in milliseconds on the respective
    percentile of matchmaking queue-to-cohort wait time (individual
    arrivals only — absent otherwise, and an absent observation fails).
    Every field is optional but at least one target must be set.
    """

    latency_p50_ms: "float | None" = None
    latency_p95_ms: "float | None" = None
    latency_p99_ms: "float | None" = None
    min_throughput_rps: "float | None" = None
    max_error_rate: "float | None" = None
    time_to_match_p50_ms: "float | None" = None
    time_to_match_p95_ms: "float | None" = None

    def __post_init__(self) -> None:
        if all(getattr(self, name) is None for name in _SLO_FIELDS):
            raise ValueError(f"an SLO block must set at least one of {_SLO_FIELDS}")
        for name in (
            "latency_p50_ms",
            "latency_p95_ms",
            "latency_p99_ms",
            "min_throughput_rps",
            "time_to_match_p50_ms",
            "time_to_match_p95_ms",
        ):
            value = getattr(self, name)
            if value is not None:
                _require_positive_number(value, name=name)
        if self.max_error_rate is not None:
            value = self.max_error_rate
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ValueError(f"max_error_rate must be in [0, 1], got {value!r}")

    def targets(self) -> dict[str, float]:
        """The configured targets only, as a name → limit mapping."""
        return {
            name: float(getattr(self, name))
            for name in _SLO_FIELDS
            if getattr(self, name) is not None
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation (configured targets only)."""
        return self.targets()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SLOSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        unknown = set(payload) - set(_SLO_FIELDS)
        if unknown:
            raise ValueError(f"unknown SLO fields: {sorted(unknown)}")
        return cls(**dict(payload))


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete declared workload.

    Attributes:
        name: scenario identifier (also names the bench artifact).
        arrival: traffic shape.
        population: cohort sizing and the skill model.
        policy: registry :class:`~repro.registry.PolicySpec` string.
        rounds: rounds each cohort plays; the scenario issues
            ``population.cohorts * rounds`` round-advance requests.
        seed: seed of the precomputed arrival schedule.
        slo: service-level targets, or ``None`` for measurement only.
        serve: optional :class:`~repro.serve.config.ServeConfig` field
            overrides (e.g. ``{"cache_size": 0, "max_cohorts": 8}``) so a
            scenario can pin the service shape it probes.
    """

    name: str
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    policy: str = "dygroups"
    rounds: int = 3
    seed: int = 0
    slo: "SLOSpec | None" = None
    serve: "Mapping[str, Any] | None" = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")
        require_positive_int(self.rounds, name="rounds")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        PolicySpec.parse(self.policy)
        if self.serve is not None:
            if not isinstance(self.serve, Mapping) or not all(
                isinstance(key, str) for key in self.serve
            ):
                raise ValueError(f"serve overrides must be a string-keyed mapping, got {self.serve!r}")

    @property
    def total_requests(self) -> int:
        """Load-generated requests the scenario issues.

        Round-advance requests for cohort workloads; for ``individual``
        arrivals, one join per participant (``cohorts * n`` — the
        round-advance phase after condensation is driven separately).
        """
        if self.arrival.kind == "individual":
            return self.population.cohorts * self.population.n
        return self.population.cohorts * self.rounds

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation."""
        payload: dict[str, Any] = {
            "name": self.name,
            "arrival": self.arrival.to_dict(),
            "population": self.population.to_dict(),
            "policy": self.policy,
            "rounds": self.rounds,
            "seed": self.seed,
        }
        if self.slo is not None:
            payload["slo"] = self.slo.to_dict()
        if self.serve is not None:
            payload["serve"] = dict(self.serve)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        known = {"name", "arrival", "population", "policy", "rounds", "seed", "slo", "serve"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        if "name" not in payload:
            raise ValueError("a scenario requires a name")
        kwargs: dict[str, Any] = {"name": payload["name"]}
        if "arrival" in payload:
            kwargs["arrival"] = ArrivalSpec.from_dict(payload["arrival"])
        if "population" in payload:
            kwargs["population"] = PopulationSpec.from_dict(payload["population"])
        for key in ("policy", "rounds", "seed", "serve"):
            if key in payload:
                kwargs[key] = payload[key]
        if payload.get("slo") is not None:
            kwargs["slo"] = SLOSpec.from_dict(payload["slo"])
        return cls(**kwargs)

    def to_json(self, *, indent: "int | None" = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a JSON document produced by :meth:`to_json`."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"a scenario document must be a JSON object, got {type(payload).__name__}")
        return cls.from_dict(payload)


#: Built-in starter scenarios (catalogued in SCENARIOS.md).
CATALOG: dict[str, ScenarioSpec] = {
    "smoke": ScenarioSpec(
        name="smoke",
        arrival=ArrivalSpec(kind="closed-loop", concurrency=2),
        population=PopulationSpec(n=30, k=5, cohorts=3, distribution="lognormal", skill_seed=11),
        policy="dygroups",
        rounds=3,
        seed=7,
        slo=SLOSpec(latency_p95_ms=5000.0, max_error_rate=0.0, min_throughput_rps=0.5),
    ),
    "fig05b-rate": ScenarioSpec(
        name="fig05b-rate",
        arrival=ArrivalSpec(kind="poisson", rate=40.0, concurrency=16),
        population=PopulationSpec(n=120, k=10, cohorts=8, distribution="lognormal", skill_seed=42),
        policy="dygroups",
        rounds=5,
        seed=7,
        slo=SLOSpec(
            latency_p50_ms=250.0,
            latency_p95_ms=1000.0,
            latency_p99_ms=2000.0,
            max_error_rate=0.0,
            min_throughput_rps=5.0,
        ),
    ),
    # Individual arrivals through the matchmaking layer: 36 seeded
    # participants join one at a time; the condenser forms 3 cohorts of
    # 12 which then play 2 rounds each.  concurrency=1 keeps the join
    # order equal to the arrival schedule, so condensation waves — and
    # the resulting groupings — are bit-identical across paradigms.
    "streaming-smoke": ScenarioSpec(
        name="streaming-smoke",
        arrival=ArrivalSpec(kind="individual", rate=300.0, concurrency=1),
        population=PopulationSpec(n=12, k=4, cohorts=3, distribution="lognormal", skill_seed=29),
        policy="dygroups",
        rounds=2,
        seed=7,
        slo=SLOSpec(time_to_match_p95_ms=30_000.0, max_error_rate=0.0),
    ),
}


def load_scenario(name_or_path: "str | Path") -> ScenarioSpec:
    """Resolve a scenario: a :data:`CATALOG` name or a JSON spec file.

    Raises:
        ValueError: for an unknown name / unreadable or invalid file.
    """
    key = str(name_or_path)
    if key in CATALOG:
        return CATALOG[key]
    path = Path(name_or_path)
    if path.is_file():
        return ScenarioSpec.from_json(path.read_text())
    raise ValueError(
        f"unknown scenario {key!r}; expected one of {sorted(CATALOG)} or a JSON spec file"
    )
