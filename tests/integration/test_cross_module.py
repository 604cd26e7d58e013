"""Cross-module integration: realistic pipelines through many subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_policy, claims, dygroups, simulate
from repro.data.scenarios import classroom, expert_panel, power_law_platform
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.io import (
    load_json,
    save_json,
    simulation_result_from_dict,
    simulation_result_to_dict,
)
from repro.metrics.diagnostics import diagnose_grouping, teacher_utilization_series
from repro.metrics.gain import normalized_gain
from repro.metrics.inequality import gini
from repro.metrics.stats import bootstrap_diff_ci


class TestScenarioPipelines:
    def test_classroom_through_all_policies(self, rng):
        skills = classroom(120, seed=1)
        gains = {}
        for name in ("dygroups", "random", "percentile", "kmeans"):
            policy = build_policy(name, mode="star", rate=0.5)
            gains[name] = simulate(
                policy, skills, k=24, alpha=4, mode="star", rate=0.5, seed=0
            ).total_gain
        check = claims.observation_2_dygroups_wins(gains)
        assert check, str(check)

    def test_expert_panel_spreads_knowledge(self):
        skills = expert_panel(200, expert_fraction=0.02, seed=2)
        result = dygroups(skills, k=20, alpha=6, rate=0.5, record_history=True)
        # The tiny expert minority must lift the whole population
        # substantially: most of the learnable skill is captured.
        assert normalized_gain(result) > 0.7
        # And inequality collapses relative to the initial split.
        assert gini(result.final_skills) < gini(skills) / 2

    def test_power_law_platform_diagnostics(self, rng):
        skills = power_law_platform(500, seed=3)
        result = dygroups(skills, k=10, alpha=3, rate=0.5, record_history=True)
        utilization = teacher_utilization_series(result)
        assert all(u == pytest.approx(1.0) for u in utilization)
        diagnostics = diagnose_grouping(skills, result.groupings[0])
        assert diagnostics.teacher_skills[0] == pytest.approx(float(skills.max()))


class TestPersistenceRoundTrips:
    def test_simulation_survives_disk(self, tmp_path):
        skills = classroom(60, seed=4)
        original = dygroups(skills, k=12, alpha=3, rate=0.5, record_history=True)
        path = save_json(simulation_result_to_dict(original), tmp_path / "run.json")
        restored = simulation_result_from_dict(load_json(path))
        assert restored.total_gain == pytest.approx(original.total_gain)
        # Restored groupings replay to the same trajectory.
        from repro.core.gain_functions import LinearGain
        from repro.core.objective import total_learning_gain

        replayed = total_learning_gain(
            restored.initial_skills, restored.groupings, "star", LinearGain(0.5)
        )
        assert replayed == pytest.approx(original.total_gain)


class TestStatisticalComparison:
    def test_paired_spec_comparison(self):
        # The runner's paired seeding means the right analysis is paired:
        # skill-draw variance (gains range several-fold across seeds)
        # swamps an unpaired CI, while the per-seed differences are
        # uniformly positive.
        from repro.metrics.stats import bootstrap_ci, paired_permutation_test

        spec = ExperimentSpec(
            n=100, k=5, alpha=4, runs=6, algorithms=("dygroups", "random")
        )
        _, raw = run_spec(spec, keep_results=True)
        dygroups_gains = np.array([r.total_gain for r in raw["dygroups"]])
        random_gains = np.array([r.total_gain for r in raw["random"]])
        differences = dygroups_gains - random_gains
        assert np.all(differences > 0)
        ci = bootstrap_ci(differences, confidence=0.75)
        assert ci.low > 0
        assert paired_permutation_test(dygroups_gains, random_gains) < 0.05
        # Contrast: the unpaired CI is (correctly) inconclusive here.
        unpaired = bootstrap_diff_ci(dygroups_gains, random_gains, confidence=0.75)
        assert unpaired.contains(0.0)


class TestNetworkScenarioPipeline:
    def test_misinformation_scenario_end_to_end(self, rng):
        from repro.network import ConnectedDyGroups, grouping_violations, scale_free

        skills = expert_panel(120, expert_fraction=0.03, seed=5)
        graph = scale_free(120, m=4, seed=5)
        policy = ConnectedDyGroups(graph)
        result = simulate(
            policy, skills, k=12, alpha=3, mode="star", rate=0.5, seed=0,
            record_history=True,
        )
        unconstrained = dygroups(skills, k=12, alpha=3, rate=0.5)
        assert 0 < result.total_gain <= unconstrained.total_gain + 1e-9
        violations = [grouping_violations(g, graph) for g in result.groupings]
        assert all(v < 120 for v in violations)
