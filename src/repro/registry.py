"""The unified, capability-aware policy registry.

One table maps every runnable grouping algorithm — core DyGroups, the
paper's baselines, and the Section VII extensions — to a typed
description the whole harness shares:

* a canonical :class:`PolicySpec` (``name`` + typed params, rendered as
  ``"name:key=value;key=value"``) is how the CLI,
  :class:`~repro.experiments.spec.ExperimentSpec`, scenario specs and
  the serving layer name a policy, and :func:`build_policy` is the one
  way such a name becomes a policy instance;
* declared **capabilities** (``vectorizable``, ``stateful``,
  ``objective_aware``, ``extension``) describe each policy: the
  conformance suite checks ``vectorizable`` against
  :func:`repro.core.vectorized.vectorize_policy`'s dispatch and
  enumerates what must be bit-identical, and ``dygroups list`` prints
  the matrix.

Typical entry points: :func:`build_policy` (spec string or
:class:`PolicySpec` → fresh policy instance), :func:`get_policy`
(name → :class:`RegisteredPolicy` record), :data:`POLICY_NAMES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.baselines.annealing import AnnealingGrouping
from repro.baselines.kmeans import KMeansGrouping
from repro.baselines.local_optimum import ArbitraryLocalOptimum
from repro.baselines.lpa import LpaGrouping
from repro.baselines.percentile import PercentilePartitions
from repro.baselines.random_assignment import RandomAssignment
from repro.baselines.static import StaticPolicy
from repro.core.dygroups import DyGroupsClique, DyGroupsStar, dygroups_policy
from repro.core.simulation import GroupingPolicy
from repro.extensions.affinity import AffinityAwarePolicy
from repro.extensions.fairness import FairnessAwarePolicy

__all__ = [
    "CAPABILITIES",
    "POLICY_NAMES",
    "ParamSpec",
    "PolicySpec",
    "RegisteredPolicy",
    "build_policy",
    "capability_matrix",
    "get_policy",
    "policy_names",
    "registered_policy_types",
    "unregistered_policy_exemptions",
]

#: The capability flags a policy can declare, in display order.
CAPABILITIES: tuple[str, ...] = (
    "vectorizable",
    "stateful",
    "objective_aware",
    "extension",
)


@dataclass(frozen=True)
class ParamSpec:
    """One typed, per-policy parameter.

    Attributes:
        name: the parameter key as it appears in a spec string.
        kind: ``"int"`` / ``"float"`` / ``"str"``.
        default: the value used when the spec omits the key (``None``
            defers to the policy constructor's own default).
        doc: one-line description for ``dygroups list`` and the docs.
    """

    name: str
    kind: str
    default: "int | float | str | None" = None
    doc: str = ""

    def coerce(self, value: "int | float | str", *, policy: str) -> "int | float | str":
        """Validate/convert ``value`` (python value or spec-string text).

        Raises:
            ValueError: naming the offending policy and key on a type
                mismatch.
        """
        try:
            if self.kind == "int":
                if isinstance(value, bool):
                    raise ValueError(value)
                if isinstance(value, int):
                    return value
                if isinstance(value, str):
                    return int(value)
                raise ValueError(value)
            if self.kind == "float":
                if isinstance(value, bool):
                    raise ValueError(value)
                if isinstance(value, (int, float)):
                    return float(value)
                if isinstance(value, str):
                    return float(value)
                raise ValueError(value)
            if self.kind == "str":
                if isinstance(value, str):
                    return value
                raise ValueError(value)
        except ValueError:
            raise ValueError(
                f"policy {policy!r} parameter {self.name!r} expects {self.kind}, "
                f"got {value!r}"
            ) from None
        raise AssertionError(f"unknown param kind {self.kind!r}")  # pragma: no cover


@dataclass(frozen=True)
class RegisteredPolicy:
    """One registry row: how to build a policy and what it can do.

    Attributes:
        name: canonical algorithm name.
        summary: one-line description.
        builds: the concrete :class:`GroupingPolicy` type(s) instances of
            this name may be (drives the completeness check).
        factory: ``factory(mode, rate, params) -> GroupingPolicy`` with
            ``params`` already validated against :attr:`params`.
        params: the declared typed parameters.
        vectorizable: a batched form exists — serve / ``simulate_many``
            trajectories are pinned bit-identical to scalar ``simulate``.
        stateful: carries cross-round state that :meth:`GroupingPolicy.reset`
            must clear.
        objective_aware: scores candidate groupings internally and
            declares a ``required_mode``.
        extension: a Section VII extension rather than a paper algorithm.
    """

    name: str
    summary: str
    builds: tuple[type, ...]
    factory: Callable[[str, float, dict], GroupingPolicy]
    params: tuple[ParamSpec, ...] = ()
    vectorizable: bool = False
    stateful: bool = False
    objective_aware: bool = False
    extension: bool = False

    @property
    def capabilities(self) -> tuple[str, ...]:
        """The declared capability flags, in :data:`CAPABILITIES` order."""
        return tuple(flag for flag in CAPABILITIES if getattr(self, flag))

    def param(self, key: str) -> ParamSpec:
        """The declared parameter named ``key``.

        Raises:
            ValueError: naming the offending key for an unknown one.
        """
        for spec in self.params:
            if spec.name == key:
                return spec
        if not self.params:
            raise ValueError(f"policy {self.name!r} takes no parameters, got {key!r}")
        known = tuple(spec.name for spec in self.params)
        raise ValueError(f"policy {self.name!r} has no parameter {key!r}; expected one of {known}")

    def validate_params(self, params: "Mapping[str, int | float | str]") -> dict:
        """Coerce/validate a params mapping against the declared schema.

        Raises:
            ValueError: naming the offending key for an unknown key or a
                type mismatch.
        """
        return {key: self.param(key).coerce(value, policy=self.name) for key, value in params.items()}


@dataclass(frozen=True)
class PolicySpec:
    """A canonical, typed reference to a registered policy.

    ``params`` is a sorted tuple of ``(key, value)`` pairs, so specs are
    hashable and equality matches canonical-string equality.  Construct
    through :meth:`make` or :meth:`parse` (both validate against the
    registry); :meth:`canonical` renders the round-trippable string form
    ``"name"`` or ``"name:key=value;key=value"``.
    """

    name: str
    params: "tuple[tuple[str, int | float | str], ...]" = ()

    @classmethod
    def make(cls, name: str, /, **params: "int | float | str") -> "PolicySpec":
        """A validated spec for ``name`` with explicit params.

        Raises:
            ValueError: for an unknown name, unknown key, or mistyped
                value (the error names the offending key).
        """
        info = get_policy(name)
        validated = info.validate_params(params)
        return cls(name=info.name, params=tuple(sorted(validated.items())))

    @classmethod
    def parse(cls, text: "str | PolicySpec") -> "PolicySpec":
        """Parse ``"name"`` / ``"name:key=value;key=value"`` (validated).

        A :class:`PolicySpec` passes through unchanged.

        Raises:
            ValueError: for a malformed string, unknown name, unknown
                key, or mistyped value.
        """
        if isinstance(text, PolicySpec):
            return text
        name, _, raw_params = text.strip().partition(":")
        params: dict[str, str] = {}
        if raw_params:
            for pair in raw_params.split(";"):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or not key or not value.strip():
                    raise ValueError(
                        f"malformed policy spec {text!r}: expected "
                        "'name' or 'name:key=value;key=value'"
                    )
                params[key] = value.strip()
        return cls.make(name.strip(), **params)

    def param_dict(self) -> "dict[str, int | float | str]":
        """The params as a plain dict."""
        return dict(self.params)

    def with_defaults(self, **params: "int | float | str") -> "PolicySpec":
        """A copy with ``params`` filled in where absent *and* declared.

        Keys the policy does not declare are silently ignored — this is
        the legacy-knob bridge (e.g. ``ExperimentSpec.lpa_max_evals``
        applies to ``lpa``/``annealing`` and to nothing else).
        """
        info = get_policy(self.name)
        declared = {spec.name for spec in info.params}
        merged = {k: v for k, v in params.items() if k in declared and v is not None}
        merged.update(self.param_dict())
        return PolicySpec.make(self.name, **merged)

    def canonical(self) -> str:
        """The round-trippable string form."""
        if not self.params:
            return self.name
        rendered = ";".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}:{rendered}"

    def __str__(self) -> str:
        return self.canonical()


# -- the registry table -------------------------------------------------------

_REGISTRY: "dict[str, RegisteredPolicy]" = {}


def _register(entry: RegisteredPolicy) -> None:
    if entry.name in _REGISTRY:  # pragma: no cover - registration-time guard
        raise ValueError(f"duplicate policy registration {entry.name!r}")
    _REGISTRY[entry.name] = entry


def _register_all() -> None:
    _register(RegisteredPolicy(
        name="dygroups",
        summary="DYGROUPS-MODE-LOCAL: the mode-matched paper algorithm",
        builds=(DyGroupsStar, DyGroupsClique),
        factory=lambda mode, rate, params: dygroups_policy(mode),
        vectorizable=True,
    ))
    _register(RegisteredPolicy(
        name="dygroups-star",
        summary="Algorithm 2: variance-maximizing round-optimal star grouping",
        builds=(DyGroupsStar,),
        factory=lambda mode, rate, params: DyGroupsStar(),
        vectorizable=True,
    ))
    _register(RegisteredPolicy(
        name="dygroups-clique",
        summary="Algorithm 3: round-robin-by-rank clique grouping",
        builds=(DyGroupsClique,),
        factory=lambda mode, rate, params: DyGroupsClique(),
        vectorizable=True,
    ))
    _register(RegisteredPolicy(
        name="random",
        summary="RANDOM-ASSIGNMENT: uniform permutation each round",
        builds=(RandomAssignment,),
        factory=lambda mode, rate, params: RandomAssignment(),
        vectorizable=True,
    ))
    _register(RegisteredPolicy(
        name="kmeans",
        summary="balanced 1-D k-means clustering of skills",
        builds=(KMeansGrouping,),
        factory=lambda mode, rate, params: KMeansGrouping(),
    ))
    _register(RegisteredPolicy(
        name="percentile",
        summary="PERCENTILE-PARTITIONS: top-(1-p) seeds dealt round-robin",
        builds=(PercentilePartitions,),
        factory=lambda mode, rate, params: PercentilePartitions(params.get("p", 0.75)),
        params=(ParamSpec("p", "float", 0.75, "skill-percentile split point"),),
        vectorizable=True,
    ))
    _register(RegisteredPolicy(
        name="lpa",
        summary="Largest-Potential-Assignment local search (swap hill-climb)",
        builds=(LpaGrouping,),
        factory=lambda mode, rate, params: LpaGrouping(
            mode, rate, max_evals=params.get("max_evals"), patience=params.get("patience")
        ),
        params=(
            ParamSpec("max_evals", "int", None, "swap-evaluation budget"),
            ParamSpec("patience", "int", None, "fruitless-swap stop patience"),
        ),
        objective_aware=True,
    ))
    _register(RegisteredPolicy(
        name="annealing",
        summary="simulated-annealing search over groupings",
        builds=(AnnealingGrouping,),
        factory=lambda mode, rate, params: AnnealingGrouping(
            mode,
            rate,
            steps=params.get("steps"),
            initial_temperature=params.get("initial_temperature", 0.05),
            cooling=params.get("cooling", 0.999),
        ),
        params=(
            ParamSpec("steps", "int", None, "annealing step budget"),
            ParamSpec("initial_temperature", "float", 0.05, "starting temperature scale"),
            ParamSpec("cooling", "float", 0.999, "multiplicative cooling factor"),
        ),
        objective_aware=True,
    ))
    _register(RegisteredPolicy(
        name="static-dygroups",
        summary="freeze DyGroups' first grouping for all rounds",
        builds=(StaticPolicy,),
        factory=lambda mode, rate, params: StaticPolicy(dygroups_policy(mode)),
        vectorizable=True,
        stateful=True,
    ))
    _register(RegisteredPolicy(
        name="static-random",
        summary="freeze one random grouping for all rounds",
        builds=(StaticPolicy,),
        factory=lambda mode, rate, params: StaticPolicy(RandomAssignment()),
        vectorizable=True,
        stateful=True,
    ))
    for strategy in ("random", "reversed", "interleaved"):
        _register(RegisteredPolicy(
            name=f"local-optimum-{strategy}",
            summary=f"star-round-optimal grouping, {strategy} non-teacher split",
            builds=(ArbitraryLocalOptimum,),
            factory=lambda mode, rate, params, s=strategy: ArbitraryLocalOptimum(s),
        ))
    _register(RegisteredPolicy(
        name="fair-star",
        summary="round-optimal star grouping, best teachers with weakest learners",
        builds=(FairnessAwarePolicy,),
        factory=lambda mode, rate, params: FairnessAwarePolicy(),
        vectorizable=True,
        extension=True,
    ))
    _register(RegisteredPolicy(
        name="affinity-aware",
        summary="bi-criteria swap search over learning gain and evolving affinity",
        builds=(AffinityAwarePolicy,),
        factory=lambda mode, rate, params: AffinityAwarePolicy(
            mode=mode,
            rate=rate,
            weight=params.get("weight", 0.3),
            sweeps=params.get("sweeps", 2),
            initial=params.get("initial", 0.1),
            growth=params.get("growth", 0.3),
            decay=params.get("decay", 0.95),
        ),
        params=(
            ParamSpec("weight", "float", 0.3, "affinity weight λ in [0, 1]"),
            ParamSpec("sweeps", "int", 2, "swap-improvement passes per round"),
            ParamSpec("initial", "float", 0.1, "starting pairwise affinity"),
            ParamSpec("growth", "float", 0.3, "co-grouped relaxation factor"),
            ParamSpec("decay", "float", 0.95, "separation decay factor"),
        ),
        stateful=True,
        objective_aware=True,
        extension=True,
    ))


_register_all()

#: Canonical names of every registered policy (baselines first, then
#: extensions), in registration order.
POLICY_NAMES: tuple[str, ...] = tuple(_REGISTRY)

#: Concrete :class:`GroupingPolicy` subclasses that are deliberately NOT
#: registered, with the reason — consumed by the registry completeness
#: test.  The graph-constrained policies require a social graph at
#: construction, which a name+params spec cannot supply.
UNREGISTERED_EXEMPT: "dict[str, str]" = {
    "_ConnectedGrower": "abstract seed-and-grow base; requires a social graph",
    "ConnectedDyGroups": "requires a social graph instance at construction",
    "ConnectedRandom": "requires a social graph instance at construction",
}


def policy_names(*, include_extensions: bool = True) -> tuple[str, ...]:
    """Registered names, optionally without the ``extension`` policies."""
    return tuple(
        name for name, info in _REGISTRY.items() if include_extensions or not info.extension
    )


def get_policy(name: str) -> RegisteredPolicy:
    """The registry record for ``name``.

    Raises:
        ValueError: for an unknown name (listing the known ones).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
        ) from None


def build_policy(
    spec: "str | PolicySpec",
    *,
    mode: str = "star",
    rate: float = 0.5,
) -> GroupingPolicy:
    """Instantiate a fresh policy from a spec (string or :class:`PolicySpec`).

    ``mode`` and ``rate`` are *context*, not params: they describe the
    simulation the policy will run in, and only mode/rate-aware policies
    (``dygroups``, ``lpa``, ``annealing``, ``affinity-aware``, the
    static wrappers) consume them.

    Raises:
        ValueError: for an unknown name, unknown param key, or mistyped
            param value — the error names the offending key.
    """
    resolved = PolicySpec.parse(spec)
    info = _REGISTRY[resolved.name]
    return info.factory(mode, rate, resolved.param_dict())


def registered_policy_types() -> frozenset:
    """Every concrete policy type reachable through the registry."""
    return frozenset(t for info in _REGISTRY.values() for t in info.builds)


def unregistered_policy_exemptions() -> "dict[str, str]":
    """Class-name → reason map of deliberately unregistered policies."""
    return dict(UNREGISTERED_EXEMPT)


def capability_matrix() -> "list[tuple[str, tuple[str, ...], tuple[str, ...]]]":
    """``(name, capabilities, param names)`` rows for docs and ``dygroups list``."""
    return [
        (info.name, info.capabilities, tuple(spec.name for spec in info.params))
        for info in _REGISTRY.values()
    ]
