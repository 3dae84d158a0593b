"""Unit tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch import (
    FrequentDirections,
    WeightedMisraGries,
    WeightedSpaceSaving,
)
from repro.utils.validation import (
    check_epsilon,
    check_matrix,
    check_non_negative_float,
    check_phi,
    check_positive_int,
    check_probability,
    check_rank,
    check_row,
    check_site_count,
    check_unit_vector,
    check_weight,
)


class TestCheckEpsilon:
    def test_accepts_valid_values(self):
        assert check_epsilon(0.5) == 0.5
        assert check_epsilon(1) == 1.0
        assert check_epsilon(1e-6) == 1e-6

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_epsilon(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_epsilon(-0.1)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_epsilon(1.5)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            check_epsilon(float("nan"))
        with pytest.raises(ValueError):
            check_epsilon(float("inf"))

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_epsilon("0.1")

    def test_custom_name_in_message(self):
        with pytest.raises(ValueError, match="my_eps"):
            check_epsilon(2.0, name="my_eps")


#: Every sketch's ``from_epsilon``, as a function of ``epsilon`` alone.
FROM_EPSILON = {
    "FrequentDirections": lambda epsilon: FrequentDirections.from_epsilon(
        dimension=5, epsilon=epsilon),
    "WeightedMisraGries": WeightedMisraGries.from_epsilon,
    "WeightedSpaceSaving": WeightedSpaceSaving.from_epsilon,
}


@pytest.mark.parametrize("sketch", sorted(FROM_EPSILON))
class TestFromEpsilon:
    """Each sketch's ``from_epsilon`` refuses what :func:`check_epsilon`
    refuses, with its error."""

    @pytest.mark.parametrize("epsilon", ["0.1", None, b"0.1", [0.1]],
                             ids=["str", "none", "bytes", "list"])
    def test_non_numbers_are_a_type_error(self, sketch, epsilon):
        with pytest.raises(TypeError, match="epsilon must be a real number"):
            FROM_EPSILON[sketch](epsilon)

    @pytest.mark.parametrize("epsilon", [-0.1, 1.5, float("nan"),
                                         float("inf")])
    def test_out_of_range_is_a_value_error(self, sketch, epsilon):
        with pytest.raises(ValueError, match="epsilon must"):
            FROM_EPSILON[sketch](epsilon)


class TestCheckPhi:
    def test_accepts_valid_values(self):
        assert check_phi(0.05) == 0.05
        assert check_phi(1.0) == 1.0

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            check_phi(0.0)
        with pytest.raises(ValueError):
            check_phi(-0.2)

    def test_rejects_phi_not_above_half_epsilon(self):
        with pytest.raises(ValueError):
            check_phi(0.01, epsilon=0.05)

    def test_accepts_phi_above_half_epsilon(self):
        assert check_phi(0.05, epsilon=0.01) == 0.05

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_phi(None)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3) == 3
        assert check_positive_int(np.int64(5)) == 5

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(0)
        with pytest.raises(ValueError):
            check_positive_int(-1)

    def test_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            check_positive_int(True)
        with pytest.raises(TypeError):
            check_positive_int(2.5)


class TestCheckNonNegativeFloat:
    def test_accepts_zero_and_positive(self):
        assert check_non_negative_float(0.0) == 0.0
        assert check_non_negative_float(3) == 3.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative_float(-1e-9)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            check_non_negative_float(float("inf"))

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_non_negative_float([1.0])


class TestCheckProbability:
    def test_accepts_unit_interval(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        assert check_probability(0.3) == 0.3

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability(1.0001)


class TestCheckWeight:
    def test_accepts_positive_weight(self):
        assert check_weight(2.5) == 2.5

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            check_weight(0.0)

    def test_rejects_weight_above_beta(self):
        with pytest.raises(ValueError):
            check_weight(11.0, beta=10.0)

    def test_accepts_weight_at_beta(self):
        assert check_weight(10.0, beta=10.0) == 10.0


class TestCheckRow:
    def test_returns_float_array(self):
        row = check_row([1, 2, 3])
        assert row.dtype == np.float64
        assert row.shape == (3,)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            check_row([1.0, 2.0], dimension=3)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError):
            check_row(np.ones((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_row([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_row([1.0, float("nan")])


class TestCheckMatrix:
    def test_returns_2d_array(self):
        matrix = check_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert matrix.shape == (2, 2)

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            check_matrix([1.0, 2.0])

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError):
            check_matrix([[1.0, float("nan")]])

    def test_min_rows_enforced(self):
        with pytest.raises(ValueError):
            check_matrix(np.zeros((1, 3)), min_rows=2)


class TestCheckUnitVector:
    def test_accepts_unit_vector(self):
        vector = check_unit_vector([1.0, 0.0, 0.0])
        assert np.allclose(vector, [1.0, 0.0, 0.0])

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            check_unit_vector([1.0, 1.0])

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            check_unit_vector([1.0, 0.0], dimension=3)


class TestCheckSiteCountAndRank:
    def test_site_count(self):
        assert check_site_count(50) == 50
        with pytest.raises(ValueError):
            check_site_count(0)

    def test_rank_bounds(self):
        assert check_rank(3, dimension=5) == 3
        with pytest.raises(ValueError):
            check_rank(6, dimension=5)
        with pytest.raises(ValueError):
            check_rank(0)
