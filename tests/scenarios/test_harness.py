"""Tests for repro.scenarios.harness (cross-paradigm comparison)."""

from __future__ import annotations

import json

import pytest

from repro.scenarios.harness import (
    ParadigmMismatch,
    ParadigmRun,
    _assert_identical,
    compare_scenario,
    run_paradigm,
    write_scenario_artifact,
)
from repro.scenarios.loadgen import LoadResult
from repro.scenarios.spec import ArrivalSpec, PopulationSpec, ScenarioSpec, SLOSpec


def _tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        arrival=ArrivalSpec(kind="closed-loop", concurrency=2),
        population=PopulationSpec(n=6, k=3, cohorts=2, skill_seed=3),
        rounds=2,
        seed=5,
        slo=SLOSpec(latency_p95_ms=30_000.0, max_error_rate=0.0),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _run(paradigm: str, groupings, *, requests=4, errors=0) -> ParadigmRun:
    return ParadigmRun(
        paradigm=paradigm,
        groupings=groupings,
        load=LoadResult(requests=requests, errors=errors, duration_seconds=1.0),
        snapshot={},
    )


class TestAssertIdentical:
    def test_identical_rounds_counted(self):
        grouping = {0: {0: ((0, 1), (2, 3)), 1: ((0, 2), (1, 3))}}
        assert _assert_identical([_run("a", grouping), _run("b", dict(grouping))]) == 2

    def test_mismatch_raises_with_location(self):
        a = {0: {0: ((0, 1), (2, 3))}}
        b = {0: {0: ((0, 2), (1, 3))}}
        with pytest.raises(ParadigmMismatch, match="cohort 0 round 0"):
            _assert_identical([_run("a", a), _run("b", b)])

    def test_compares_only_jointly_played_rounds(self):
        a = {0: {0: ((0, 1),), 1: ((0, 1),)}}
        b = {0: {0: ((0, 1),)}}  # round 1 was rejected under saturation
        assert _assert_identical([_run("a", a), _run("b", b)]) == 1

    def test_no_overlap_at_all_raises(self):
        a = {0: {0: ((0, 1),)}}
        b = {0: {1: ((0, 1),)}}
        with pytest.raises(ParadigmMismatch, match="no jointly-played"):
            _assert_identical([_run("a", a), _run("b", b)])


class TestRunParadigm:
    def test_unknown_paradigm_rejected(self):
        with pytest.raises(ValueError, match="unknown paradigm"):
            run_paradigm(_tiny_spec(), "grpc")

    def test_inprocess_plays_every_round(self):
        run = run_paradigm(_tiny_spec(), "inprocess")
        assert run.paradigm == "inprocess"
        assert run.load.requests == 4
        assert run.load.errors == 0
        assert run.rounds_played == 4
        assert set(run.groupings) == {0, 1}
        assert run.latency_series()["count"] == 4
        assert "kernel_step" in run.stage_series()


class TestCompareScenario:
    def test_inprocess_vs_http_bit_identical(self):
        comparison = compare_scenario(_tiny_spec(), paradigms=("inprocess", "http"))
        assert comparison.rounds_compared == 4
        assert comparison.passed
        assert set(comparison.reports) == {"inprocess", "http"}
        assert all(report.passed for report in comparison.reports.values())

    def test_cli_paradigm_matches_service(self):
        spec = _tiny_spec(population=PopulationSpec(n=6, k=3, cohorts=1, skill_seed=3))
        comparison = compare_scenario(spec, paradigms=("inprocess", "cli"))
        assert comparison.rounds_compared == spec.rounds
        assert comparison.passed

    def test_no_paradigms_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            compare_scenario(_tiny_spec(), paradigms=())

    def test_failing_slo_fails_comparison(self):
        spec = _tiny_spec(slo=SLOSpec(min_throughput_rps=1e9))
        comparison = compare_scenario(spec, paradigms=("inprocess",))
        assert not comparison.passed
        assert comparison.verdict == "fail"


class TestArtifact:
    def test_write_scenario_artifact(self, tmp_path):
        comparison = compare_scenario(_tiny_spec(), paradigms=("inprocess",))
        path = write_scenario_artifact(comparison, tmp_path)
        assert path.name == "BENCH_scenario_tiny.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["identical"] is True
        assert payload["verdict"] == "pass"
        assert payload["scenario"]["name"] == "tiny"
        assert "provenance" in payload
        assert set(payload["provenance"]["host"]) == {
            "platform",
            "python",
            "node",
            "machine",
        }
        inproc = payload["paradigms"]["inprocess"]
        assert inproc["requests"] == 4
        assert inproc["latency"]["count"] == 4
        assert inproc["slo"]["verdict"] == "pass"
        # Every round-advance request runs through the one round path.
        assert set(inproc["stages"]) == {"kernel_step"}
        assert inproc["stages"]["kernel_step"]["count"] == 4
