"""Unit tests for repro._validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro._validation import (
    as_skill_array,
    require_divisible_groups,
    require_int_in_range,
    require_learning_rate,
    require_positive_int,
    require_probability,
)


class TestAsSkillArray:
    def test_returns_float64_copy(self):
        source = np.array([1.0, 2.0, 3.0])
        result = as_skill_array(source)
        assert result.dtype == np.float64
        result[0] = 99.0
        assert source[0] == 1.0

    def test_accepts_lists_and_tuples(self):
        assert as_skill_array([1, 2, 3]).tolist() == [1.0, 2.0, 3.0]
        assert as_skill_array((0.5, 1.5)).tolist() == [0.5, 1.5]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            as_skill_array([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_skill_array(np.ones((2, 2)))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            as_skill_array([1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            as_skill_array([1.0, -2.0])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_skill_array([1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            as_skill_array([1.0, np.inf])
        with pytest.raises(ValueError, match="finite"):
            as_skill_array([1.0, 10**400])

    def test_rejects_non_numeric(self):
        with pytest.raises((TypeError, ValueError)):
            as_skill_array(["a", "b"])

    def test_custom_name_in_message(self):
        with pytest.raises(ValueError, match="latents"):
            as_skill_array([-1.0], name="latents")


class TestRequirePositiveInt:
    def test_accepts_positive(self):
        assert require_positive_int(5, name="x") == 5

    def test_accepts_numpy_integer(self):
        assert require_positive_int(np.int64(3), name="x") == 3

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            require_positive_int(0, name="x")
        with pytest.raises(ValueError):
            require_positive_int(-1, name="x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive_int(True, name="x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            require_positive_int(2.5, name="x")


class TestRequireIntInRange:
    def test_in_range(self):
        assert require_int_in_range(3, name="x", low=1, high=5) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            require_int_in_range(6, name="x", low=1, high=5)


class TestRequireLearningRate:
    @pytest.mark.parametrize("rate", [0.01, 0.5, 0.99])
    def test_accepts_open_interval(self, rate):
        assert require_learning_rate(rate) == rate

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_boundary_and_outside(self, rate):
        with pytest.raises(ValueError):
            require_learning_rate(rate)

    def test_int_too_large_for_a_float_is_a_value_error(self):
        with pytest.raises(ValueError, match="too large"):
            require_learning_rate(10**400)
        with pytest.raises(ValueError, match="too large"):
            require_probability(10**400, name="p")

    def test_rejects_bool_and_str(self):
        with pytest.raises(TypeError):
            require_learning_rate(True)
        with pytest.raises(TypeError):
            require_learning_rate("0.5")


class TestRequireProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_closed_interval(self, value):
        assert require_probability(value, name="p") == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            require_probability(value, name="p")


class TestRequireDivisibleGroups:
    def test_returns_group_size(self):
        assert require_divisible_groups(12, 3) == 4

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError, match="divide"):
            require_divisible_groups(10, 3)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            require_divisible_groups(3, 6)

    def test_rejects_singleton_groups(self):
        with pytest.raises(ValueError, match="at least 2"):
            require_divisible_groups(6, 6)
