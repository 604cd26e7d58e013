"""Unit tests for repro.io."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.dygroups import dygroups
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.io import (
    experiment_spec_from_dict,
    experiment_spec_to_dict,
    load_json,
    load_skills,
    save_json,
    series_set_from_dict,
    series_set_to_dict,
    simulation_result_from_dict,
    simulation_result_to_dict,
    spec_outcome_to_dict,
)
from repro.metrics.series import Series, SeriesSet


@pytest.fixture
def result(toy_skills):
    return dygroups(toy_skills, k=3, alpha=3, rate=0.5, record_history=True)


class TestSimulationResultRoundTrip:
    def test_round_trip_preserves_everything(self, result):
        restored = simulation_result_from_dict(simulation_result_to_dict(result))
        assert restored.policy_name == result.policy_name
        assert restored.mode_name == result.mode_name
        assert restored.k == result.k and restored.alpha == result.alpha
        np.testing.assert_allclose(restored.initial_skills, result.initial_skills)
        np.testing.assert_allclose(restored.final_skills, result.final_skills)
        np.testing.assert_allclose(restored.round_gains, result.round_gains)
        assert restored.groupings == result.groupings
        assert restored.skill_history is not None
        np.testing.assert_allclose(restored.skill_history, result.skill_history)

    def test_round_trip_without_history(self, toy_skills):
        result = dygroups(toy_skills, k=3, alpha=2, rate=0.5)
        restored = simulation_result_from_dict(simulation_result_to_dict(result))
        assert restored.skill_history is None
        assert restored.total_gain == pytest.approx(result.total_gain)

    def test_payload_is_json_serializable(self, result):
        json.dumps(simulation_result_to_dict(result))

    def test_missing_field_raises(self, result):
        payload = simulation_result_to_dict(result)
        del payload["round_gains"]
        with pytest.raises(KeyError):
            simulation_result_from_dict(payload)


class TestSeriesSetRoundTrip:
    def test_round_trip(self):
        original = SeriesSet(
            title="t",
            x_label="x",
            y_label="y",
            series=(Series(label="a", x=(1.0, 2.0), y=(3.0, 4.0)),),
        )
        restored = series_set_from_dict(series_set_to_dict(original))
        assert restored.title == original.title
        assert restored.series == original.series


class TestSpecRoundTrip:
    def test_spec_io_round_trip(self):
        spec = ExperimentSpec(
            n=24, k=4, runs=2, algorithms=("dygroups",), engine="scalar", workers=2
        )
        payload = experiment_spec_to_dict(spec)
        assert payload["engine"] == "scalar" and payload["workers"] == 2
        # Specs saved by earlier versions carry a "shards" count for an
        # engine path whose results were bit-identical to the vectorized
        # engine's; loading drops it.
        for saved in (payload, {**payload, "shards": 4}):
            assert experiment_spec_from_dict(saved) == spec

    def test_removed_vectorized_engine_loads_as_auto(self):
        # Earlier versions also saved a "vectorized" engine value, which
        # ran the same stacked path "auto" picks (and raised otherwise).
        spec = ExperimentSpec(n=24, k=4, runs=2, algorithms=("dygroups", "random"))
        payload = experiment_spec_to_dict(spec)
        legacy = experiment_spec_from_dict({**payload, "engine": "vectorized"})
        assert legacy == spec and legacy.engine == "auto"
        scalar = run_spec(spec.with_(engine="scalar"))
        for name, outcome in run_spec(legacy).outcomes.items():
            assert outcome.mean_total_gain == scalar.outcomes[name].mean_total_gain
            assert outcome.mean_round_gains == scalar.outcomes[name].mean_round_gains

    def test_unknown_engine_fails_to_load(self):
        payload = experiment_spec_to_dict(ExperimentSpec(n=24, k=4, runs=2))
        with pytest.raises(ValueError, match="unknown engine"):
            experiment_spec_from_dict({**payload, "engine": "turbo"})


class TestSpecOutcomeExport:
    def test_export_contains_spec_and_aggregates(self):
        spec = ExperimentSpec(n=30, k=3, alpha=2, runs=2, algorithms=("dygroups", "random"))
        payload = spec_outcome_to_dict(run_spec(spec))
        assert payload["spec"]["n"] == 30
        assert set(payload["outcomes"]) == {"dygroups", "random"}
        json.dumps(payload)


class TestJsonFiles:
    def test_save_and_load(self, tmp_path):
        path = save_json({"a": 1}, tmp_path / "sub" / "x.json")
        assert load_json(path) == {"a": 1}

    def test_load_non_object_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_json(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_json(tmp_path / "nope.json")


class TestLoadSkills:
    def test_json_bare_list(self, tmp_path):
        path = tmp_path / "skills.json"
        path.write_text("[0.1, 0.5, 0.9]")
        np.testing.assert_allclose(load_skills(path), [0.1, 0.5, 0.9])

    def test_json_object_with_skills_key(self, tmp_path):
        path = tmp_path / "skills.json"
        path.write_text('{"skills": [1.0, 2.0]}')
        np.testing.assert_allclose(load_skills(path), [1.0, 2.0])

    def test_json_object_without_key(self, tmp_path):
        path = tmp_path / "skills.json"
        path.write_text('{"values": [1.0]}')
        with pytest.raises(ValueError, match="skills"):
            load_skills(path)

    def test_csv_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "skills.csv"
        path.write_text("# header\n0.1, 0.2\n\n0.3\n")
        np.testing.assert_allclose(load_skills(path), [0.1, 0.2, 0.3])

    def test_txt_one_per_line(self, tmp_path):
        path = tmp_path / "skills.txt"
        path.write_text("1.5\n2.5\n")
        np.testing.assert_allclose(load_skills(path), [1.5, 2.5])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_skills(tmp_path / "none.csv")

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "skills.txt"
        path.write_text("1.0\n-2.0\n")
        with pytest.raises(ValueError, match="positive"):
            load_skills(path)

    def test_loaded_skills_usable_end_to_end(self, tmp_path):
        path = tmp_path / "skills.csv"
        path.write_text(",".join(str(0.1 * i) for i in range(1, 10)))
        skills = load_skills(path)
        result = dygroups(skills, k=3, alpha=2, rate=0.5)
        assert result.total_gain > 0
