"""Unit tests for repro.experiments.spec."""

from __future__ import annotations

import pytest

from repro.experiments.spec import DEFAULT_ALGORITHMS, ExperimentSpec


class TestExperimentSpec:
    def test_defaults_match_paper(self):
        spec = ExperimentSpec()
        assert spec.n == 10_000
        assert spec.k == 5
        assert spec.alpha == 5
        assert spec.rate == 0.5
        assert spec.mode == "star"
        assert spec.distribution == "lognormal"
        assert spec.runs == 10

    def test_default_algorithms(self):
        assert "dygroups" in DEFAULT_ALGORITHMS
        assert "random" in DEFAULT_ALGORITHMS

    def test_rejects_indivisible_k(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, k=3)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ExperimentSpec(rate=1.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ExperimentSpec(mode="mesh")

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            ExperimentSpec(distribution="cauchy")

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            ExperimentSpec(algorithms=("dygroups", "bogus"))

    def test_accepts_spec_strings_and_extensions(self):
        spec = ExperimentSpec(algorithms=("percentile:p=0.9", "fair-star"))
        assert spec.algorithms == ("percentile:p=0.9", "fair-star")

    def test_rejects_bad_spec_param(self):
        with pytest.raises(ValueError, match="has no parameter 'q'"):
            ExperimentSpec(algorithms=("percentile:q=0.9",))

    @pytest.mark.parametrize("value", [-5, 0, True, "abc", 2.5])
    def test_rejects_bad_lpa_max_evals(self, value):
        with pytest.raises((TypeError, ValueError), match="lpa_max_evals"):
            ExperimentSpec(n=20, k=2, runs=1, algorithms=("dygroups",), lpa_max_evals=value)

    @pytest.mark.parametrize("value", [None, 1, 10_000])
    def test_accepts_lpa_max_evals(self, value):
        spec = ExperimentSpec(n=20, k=2, runs=1, algorithms=("lpa",), lpa_max_evals=value)
        assert spec.lpa_max_evals == value

    def test_rejects_empty_algorithms(self):
        with pytest.raises(ValueError):
            ExperimentSpec(algorithms=())

    def test_with_override(self):
        spec = ExperimentSpec().with_(n=100, k=5)
        assert spec.n == 100
        assert spec.alpha == 5  # untouched

    def test_with_revalidates(self):
        with pytest.raises(ValueError):
            ExperimentSpec().with_(n=7)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExperimentSpec().n = 5  # type: ignore[misc]
