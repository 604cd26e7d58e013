"""Registry conformance suite.

Every registered policy must honor the same contract, whatever its
capabilities: build cleanly from a :class:`~repro.registry.PolicySpec`,
be an instance of its declared ``builds`` types, replay bit-identically
after ``reset()`` (the driver's per-run guarantee), and — for the
``vectorizable`` set — produce the same trajectory through ``simulate``,
``simulate_many``, and a served cohort.

The completeness check is the refactor's enforcement backstop: a new
``GroupingPolicy`` subclass that is neither registered nor on the
documented exemption list fails the suite.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.baselines  # noqa: F401 - populate GroupingPolicy.__subclasses__
import repro.extensions  # noqa: F401
import repro.network  # noqa: F401
from repro.core.simulation import GroupingPolicy, simulate
from repro.core.vectorized import simulate_many
from repro.registry import (
    CAPABILITIES,
    POLICY_NAMES,
    PolicySpec,
    build_policy,
    capability_matrix,
    get_policy,
    policy_names,
    registered_policy_types,
    unregistered_policy_exemptions,
    vectorizer_for,
)
from repro.serve.config import ServeConfig
from repro.serve.service import GroupingService


def _mode_for(name: str) -> str:
    """The interaction mode a registered policy's objective assumes."""
    return "clique" if name == "dygroups-clique" else "star"


def _all_subclasses(cls: type) -> set[type]:
    found: set[type] = set()
    for sub in cls.__subclasses__():
        found.add(sub)
        found |= _all_subclasses(sub)
    return found


@pytest.fixture
def skills() -> np.ndarray:
    return np.random.default_rng(5).uniform(1.0, 9.0, size=12)


class TestBuildFromSpec:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_name_builds_its_declared_types(self, name):
        info = get_policy(name)
        policy = build_policy(PolicySpec.parse(name), mode=_mode_for(name), rate=0.5)
        assert isinstance(policy, GroupingPolicy)
        assert type(policy) in info.builds

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_fresh_instance_per_build(self, name):
        spec = PolicySpec.parse(name)
        mode = _mode_for(name)
        assert build_policy(spec, mode=mode) is not build_policy(spec, mode=mode)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_canonical_spec_round_trips(self, name):
        info = get_policy(name)
        params = {
            spec.name: spec.default for spec in info.params if spec.default is not None
        }
        spec = PolicySpec.make(name, **params)
        assert PolicySpec.parse(spec.canonical()) == spec

    def test_typed_params_reach_the_policy(self):
        assert build_policy("percentile:p=0.9").p == 0.9
        assert "7" in repr(build_policy("lpa:max_evals=7"))

    def test_unknown_key_names_the_offender(self):
        with pytest.raises(ValueError, match="has no parameter 'q'"):
            build_policy("percentile:q=0.9")

    def test_mistyped_value_names_the_offender(self):
        with pytest.raises(ValueError, match="'p' expects float"):
            build_policy("percentile:p=high")

    def test_capability_matrix_covers_every_name(self):
        rows = capability_matrix()
        assert [row[0] for row in rows] == list(POLICY_NAMES)
        for _, caps, _ in rows:
            assert set(caps) <= set(CAPABILITIES)

    def test_extension_filter(self):
        baseline = set(policy_names(include_extensions=False))
        everything = set(policy_names())
        extensions = {n for n in everything if get_policy(n).extension}
        assert extensions == everything - baseline
        assert {"fair-star", "affinity-aware"} <= extensions


class TestResetSemantics:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_one_instance_replays_bit_identically(self, name, skills):
        """simulate() resets the policy: two runs on one instance agree."""
        mode = _mode_for(name)
        policy = build_policy(name, mode=mode, rate=0.5)
        first = simulate(policy, skills, k=3, alpha=3, mode=mode, rate=0.5, seed=11)
        second = simulate(policy, skills, k=3, alpha=3, mode=mode, rate=0.5, seed=11)
        assert np.array_equal(first.final_skills, second.final_skills)
        assert np.array_equal(first.round_gains, second.round_gains)

    @pytest.mark.parametrize("name", [n for n in POLICY_NAMES if get_policy(n).stateful])
    def test_stateful_policies_clear_state_on_reset(self, name, skills):
        mode = _mode_for(name)
        policy = build_policy(name, mode=mode, rate=0.5)
        rng = np.random.default_rng(3)
        first = policy.propose(skills, 3, rng)
        policy.reset()
        replay = policy.propose(skills, 3, np.random.default_rng(3))
        assert [list(g) for g in first] == [list(g) for g in replay]


class TestVectorizableBitIdentity:
    VECTORIZABLE = [n for n in POLICY_NAMES if get_policy(n).vectorizable]

    def test_fair_star_extension_is_in_the_vectorizable_set(self):
        assert "fair-star" in self.VECTORIZABLE

    @pytest.mark.parametrize("name", VECTORIZABLE)
    def test_simulate_many_and_serve_match_scalar(self, name, skills):
        mode = _mode_for(name)
        scalar = simulate(
            build_policy(name, mode=mode, rate=0.5),
            skills, k=3, alpha=4, mode=mode, rate=0.5, seed=17,
        )
        batch = simulate_many(
            build_policy(name, mode=mode, rate=0.5),
            np.stack([skills, skills]), k=3, alpha=4, mode=mode, rate=0.5,
            seeds=[17, 17], engine="vectorized",
        )
        assert batch.engine == "vectorized"
        for row in range(2):
            assert np.array_equal(batch.final_skills[row], scalar.final_skills)
            assert np.array_equal(batch.round_gains[row], scalar.round_gains)
        with GroupingService(ServeConfig(cache_size=32)) as svc:
            cohort = svc.create_cohort(
                {"skills": skills.tolist(), "k": 3, "mode": mode, "policy": name, "seed": 17}
            )["cohort"]
            svc.advance_rounds(cohort, 4)
            served = np.array(svc.get_cohort(cohort)["skills"])
        assert np.array_equal(served, scalar.final_skills)

    @pytest.mark.parametrize("name", VECTORIZABLE)
    def test_declared_vectorizer_resolves(self, name):
        from repro.core.vectorized import vectorize_policy

        mode = _mode_for(name)
        policy = build_policy(name, mode=mode, rate=0.5)
        assert vectorize_policy(policy) is not None
        if get_policy(name).vectorizer is not None:
            assert vectorizer_for(policy) is not None


class TestCompleteness:
    def test_every_policy_subclass_is_registered_or_exempt(self):
        registered = registered_policy_types()
        exempt = unregistered_policy_exemptions()
        missing = []
        for cls in _all_subclasses(GroupingPolicy):
            if not cls.__module__.startswith("repro."):
                continue  # test-local fixtures
            if inspect.isabstract(cls):
                continue
            if cls in registered or cls.__name__ in exempt:
                continue
            missing.append(f"{cls.__module__}.{cls.__name__}")
        assert not missing, (
            "GroupingPolicy subclasses missing from repro.registry (register "
            f"them or document an exemption): {sorted(missing)}"
        )

    def test_the_check_catches_an_unregistered_subclass(self):
        """Meta-test: a planted subclass outside the registry is detected."""

        class Planted(GroupingPolicy):  # pragma: no cover - never proposed
            name = "planted"

            def propose(self, skills, k, rng):
                raise NotImplementedError

        try:
            unclaimed = {
                cls
                for cls in _all_subclasses(GroupingPolicy)
                if cls not in registered_policy_types()
                and cls.__name__ not in unregistered_policy_exemptions()
            }
            assert Planted in unclaimed
        finally:
            # Drop the planted class from GroupingPolicy.__subclasses__ so
            # the real completeness check stays clean in any test order.
            import gc

            del Planted
            gc.collect()

    def test_exemptions_name_real_classes(self):
        import repro.network.constrained as constrained

        for class_name in unregistered_policy_exemptions():
            assert hasattr(constrained, class_name)
