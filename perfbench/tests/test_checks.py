"""The correctness checks accept the program's outputs and reject doctored ones."""

from __future__ import annotations

import numpy as np

from perfbench.checks import join_failures, offline_failures, rounds_failures
from perfbench.loadgen import Cohort, JoinScript, RoundsScript
from perfbench.offline import outcome_fields


def test_offline_check_compares_with_the_scalar_engine():
    from repro.experiments.runner import run_spec
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec(n=60, k=5, alpha=3, algorithms=("dygroups",), runs=3, seed=4)
    fields = outcome_fields(run_spec(spec, workers=1).outcomes["dygroups"])
    assert offline_failures({"star": [fields, fields]}, {"star": spec}) == []
    doctored = {**fields, "mean_total_gain": fields["mean_total_gain"] + 1e-9}
    assert len(offline_failures({"star": [fields, doctored]}, {"star": spec})) == 1


def _served(mode: str, seed: int, rounds: int) -> Cohort:
    """A cohort as the server plays it (the kernel ``simulate`` replays)."""
    from repro.core.simulation import simulate
    from repro.registry import PolicySpec, build_policy

    skills = list(np.random.default_rng(seed).lognormal(size=20))
    result = simulate(
        build_policy(PolicySpec.parse("dygroups"), mode=mode, rate=0.5),
        np.array(skills),
        k=4,
        alpha=rounds,
        mode=mode,
        rate=0.5,
        seed=seed,
    )
    cohort = Cohort(skills=skills, mode=mode, seed=seed, id="c1")
    for gain, grouping in zip(result.round_gains, result.groupings):
        cohort.played.append((float(gain), [list(map(int, group)) for group in grouping]))
    return cohort


def test_rounds_check_replays_every_round():
    script = RoundsScript(np.random.default_rng(0), slots=1, rounds=3, n=20, k=4)
    script.cohorts = [_served("star", 3, 3), _served("clique", 4, 2)]
    assert rounds_failures([script], k=4) == []
    gain, groups = script.cohorts[1].played[1]
    script.cohorts[1].played[1] = (gain * (1 + 1e-15) + 1e-12, groups)
    assert len(rounds_failures([script], k=4)) == 1


def _join_world():
    script = JoinScript(np.random.default_rng(0), connection=0, specs=["s"], lag=1)
    script.joined = [("a", "s", 3.0), ("b", "s", 5.0), ("c", "s", 1.0)]
    script.reports = {"a": ("matched", "c1", 1), "c": ("waiting", None, None)}
    snapshot = {
        "specs": {
            "s": {"n": 2, "k": 1, "mode": "star", "seed": 7, "pending": 1, "cohorts": ["c1"]}
        }
    }
    cohorts = {"c1": {"seed": 7, "n": 2, "k": 1, "mode": "star", "rounds": 0, "skills": [5.0, 3.0]}}
    return [script], snapshot, cohorts


def test_join_check_accepts_a_consistent_world():
    assert join_failures(*_join_world()) == []


def test_join_check_rejects_wrong_seed_order_and_reports():
    scripts, snapshot, cohorts = _join_world()
    cohorts["c1"]["seed"] = 8
    assert join_failures(scripts, snapshot, cohorts)
    scripts, snapshot, cohorts = _join_world()
    cohorts["c1"]["skills"] = [3.0, 5.0]
    assert join_failures(scripts, snapshot, cohorts)
    scripts, snapshot, cohorts = _join_world()
    scripts[0].reports["a"] = ("matched", "c1", 0)
    assert join_failures(scripts, snapshot, cohorts)
    scripts, snapshot, cohorts = _join_world()
    snapshot["specs"]["s"]["pending"] = 0
    assert join_failures(scripts, snapshot, cohorts)
