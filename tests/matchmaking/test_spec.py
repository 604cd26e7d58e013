"""GroupSpec validation, resolved fill bounds, and round-tripping."""

from __future__ import annotations

import pytest

from repro.matchmaking.spec import DEFAULT_SPEC_NAME, GroupSpec
from repro.serve import GroupingService, ServeConfig


class TestValidation:
    def test_defaults_are_valid(self):
        spec = GroupSpec()
        assert spec.name == DEFAULT_SPEC_NAME
        assert spec.n == 30 and spec.k == 5

    @pytest.mark.parametrize("name", ["", "has space", "a" * 65, "näme"])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ValueError, match="spec name"):
            GroupSpec(name=name)

    def test_k_must_divide_n(self):
        with pytest.raises(ValueError):
            GroupSpec(n=10, k=3)

    def test_group_size_must_allow_learning(self):
        # n/k == 1 gives singleton groups — no peers to learn from.
        with pytest.raises(ValueError):
            GroupSpec(n=5, k=5)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            GroupSpec(policy="no-such-policy")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GroupSpec(mode="mesh")

    @pytest.mark.parametrize("deadline", [0, -1.0, "soon", True])
    def test_bad_deadline_rejected(self, deadline):
        with pytest.raises(ValueError):
            GroupSpec(deadline_seconds=deadline)

    @pytest.mark.parametrize("seed", [-1, -3, 2.5, "7", True, None])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            GroupSpec(seed=seed)

    def test_service_refuses_a_negative_seed_at_start(self):
        # The i-th cohort is created with seed + i, and numpy rejects a
        # negative seed: such a spec could never condense a cohort.
        config = ServeConfig(matchmaking={"specs": [{"n": 4, "k": 2, "seed": -3}]})
        with pytest.raises(ValueError, match="seed"):
            GroupingService(config)

    def test_fill_bounds_must_be_multiples_of_k(self):
        with pytest.raises(ValueError, match="multiple of k"):
            GroupSpec(n=30, k=5, min_fill=7)
        with pytest.raises(ValueError, match="multiple of k"):
            GroupSpec(n=30, k=5, max_fill=12)

    def test_fill_bounds_must_not_exceed_n(self):
        with pytest.raises(ValueError, match="must not exceed n"):
            GroupSpec(n=30, k=5, max_fill=35)

    def test_min_fill_must_not_exceed_max_fill(self):
        with pytest.raises(ValueError, match="must not exceed max_fill"):
            GroupSpec(n=30, k=5, min_fill=20, max_fill=10)

    def test_fill_bounds_below_two_groups_rejected(self):
        # A condensed cohort of k members would form singleton groups.
        with pytest.raises(ValueError, match="at least 2\\*k"):
            GroupSpec(n=30, k=5, min_fill=5)

    def test_max_cohorts_must_be_positive(self):
        with pytest.raises(ValueError):
            GroupSpec(max_cohorts=0)


class TestResolvedBounds:
    def test_fill_defaults_resolve_to_two_groups_and_n(self):
        spec = GroupSpec(n=30, k=5)
        assert spec.fill_min == 10  # 2*k: smallest size with two-member groups
        assert spec.fill_max == 30

    def test_explicit_fill_bounds_win(self):
        spec = GroupSpec(n=30, k=5, min_fill=10, max_fill=20)
        assert spec.fill_min == 10
        assert spec.fill_max == 20


class TestCohortPayload:
    def test_payload_matches_create_cohort_contract(self):
        spec = GroupSpec(n=12, k=4, policy="dygroups", mode="clique", rate=0.3, seed=11)
        payload = spec.cohort_payload([3.0, 2.0, 1.0, 0.5], 2)
        assert payload == {
            "skills": [3.0, 2.0, 1.0, 0.5],
            "k": 4,
            "mode": "clique",
            "rate": 0.3,
            "policy": "dygroups",
            "seed": 13,  # base seed + cohort index
        }


class TestRoundTrip:
    def test_to_from_dict_round_trips(self):
        spec = GroupSpec(
            name="novice",
            n=20,
            k=4,
            policy="percentile:p=0.9",
            mode="star",
            rate=0.4,
            seed=3,
            min_fill=8,
            max_fill=16,
            deadline_seconds=12.5,
            max_cohorts=9,
        )
        assert GroupSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_raise(self):
        with pytest.raises(ValueError, match="unknown group-spec fields"):
            GroupSpec.from_dict({"n": 12, "k": 4, "deadline": 5})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            GroupSpec.from_dict(["n", 12])
