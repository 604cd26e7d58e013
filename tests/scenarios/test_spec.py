"""Unit tests for repro.scenarios.spec (declarative scenario specs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios.spec import (
    ARRIVAL_KINDS,
    CATALOG,
    ArrivalSpec,
    PopulationSpec,
    ScenarioSpec,
    SLOSpec,
    load_scenario,
)


class TestArrivalSpec:
    def test_default_is_closed_loop(self):
        arrival = ArrivalSpec()
        assert arrival.kind == "closed-loop"
        assert not arrival.open_loop

    def test_poisson_requires_rate(self):
        with pytest.raises(ValueError, match="rate"):
            ArrivalSpec(kind="poisson")
        assert ArrivalSpec(kind="poisson", rate=10.0).open_loop

    def test_burst_requires_size_and_interval(self):
        with pytest.raises(ValueError, match="burst_size"):
            ArrivalSpec(kind="burst", burst_size=4)
        ArrivalSpec(kind="burst", burst_size=4, burst_interval=0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="arrival kind"):
            ArrivalSpec(kind="open-loop")

    def test_round_trip_omits_none(self):
        arrival = ArrivalSpec(kind="poisson", rate=25.0, concurrency=8)
        payload = arrival.to_dict()
        assert "burst_size" not in payload
        assert ArrivalSpec.from_dict(payload) == arrival

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown arrival fields"):
            ArrivalSpec.from_dict({"kind": "closed-loop", "ratee": 3})


class TestPopulationSpec:
    def test_k_must_divide_n(self):
        with pytest.raises(ValueError):
            PopulationSpec(n=10, k=3)

    def test_skills_are_seeded_per_cohort(self):
        population = PopulationSpec(n=12, k=3, cohorts=2, skill_seed=5)
        assert np.array_equal(population.skills(0), population.skills(0))
        assert not np.array_equal(population.skills(0), population.skills(1))

    def test_skills_cohort_index_bounds(self):
        with pytest.raises(ValueError, match="cohort_index"):
            PopulationSpec(cohorts=2).skills(2)

    def test_round_trip(self):
        population = PopulationSpec(n=20, k=4, cohorts=5, distribution="uniform")
        assert PopulationSpec.from_dict(population.to_dict()) == population


class TestSLOSpec:
    def test_requires_at_least_one_target(self):
        with pytest.raises(ValueError, match="at least one"):
            SLOSpec()

    def test_targets_returns_configured_only(self):
        slo = SLOSpec(latency_p95_ms=100.0, max_error_rate=0.0)
        assert slo.targets() == {"latency_p95_ms": 100.0, "max_error_rate": 0.0}

    def test_error_rate_bounds(self):
        with pytest.raises(ValueError, match="max_error_rate"):
            SLOSpec(max_error_rate=1.5)

    def test_round_trip(self):
        slo = SLOSpec(latency_p50_ms=10.0, min_throughput_rps=2.0)
        assert SLOSpec.from_dict(slo.to_dict()) == slo


class TestScenarioSpec:
    def test_total_requests(self):
        spec = ScenarioSpec(name="s", population=PopulationSpec(cohorts=4), rounds=3)
        assert spec.total_requests == 12

    def test_policy_spec_validated(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="s", policy="no-such-policy")

    def test_json_round_trip(self):
        spec = CATALOG["fig05b-rate"]
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"name": "s", "rps": 3})

    def test_name_required(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec.from_dict({"rounds": 3})


class TestCatalog:
    def test_expected_scenarios_present(self):
        assert set(CATALOG) == {"smoke", "fig05b-rate", "streaming-smoke"}

    def test_every_entry_round_trips(self):
        for name, spec in CATALOG.items():
            assert spec.name == name
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_every_arrival_kind_is_known(self):
        for spec in CATALOG.values():
            assert spec.arrival.kind in ARRIVAL_KINDS

    def test_load_scenario_by_name(self):
        assert load_scenario("smoke") is CATALOG["smoke"]

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(CATALOG["smoke"].to_json())
        assert load_scenario(path) == CATALOG["smoke"]

    def test_load_scenario_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            load_scenario("nope")
