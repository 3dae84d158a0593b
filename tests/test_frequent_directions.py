"""Unit tests for the Frequent Directions sketch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch.frequent_directions import FrequentDirections
from repro.utils.linalg import covariance_error, squared_frobenius


def liberty_bound_holds(matrix: np.ndarray, sketch: FrequentDirections,
                        directions: int = 25, seed: int = 0) -> bool:
    """Check 0 <= ||Ax||^2 - ||Bx||^2 <= 2||A||_F^2 / l along random directions."""
    rng = np.random.default_rng(seed)
    bound = 2.0 * squared_frobenius(matrix) / sketch.sketch_size
    b = sketch.sketch_matrix()
    for _ in range(directions):
        x = rng.standard_normal(matrix.shape[1])
        x /= np.linalg.norm(x)
        true = float(np.linalg.norm(matrix @ x) ** 2)
        approx = float(np.linalg.norm(b @ x) ** 2) if b.size else 0.0
        if not (-1e-8 <= true - approx <= bound + 1e-8):
            return False
    return True


class TestFrequentDirections:
    def test_error_bound_random_matrix(self, small_matrix):
        sketch = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=6)
        sketch.update_many(small_matrix)
        assert liberty_bound_holds(small_matrix, sketch)

    def test_spectral_covariance_bound(self, small_matrix):
        sketch = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=6)
        sketch.update_many(small_matrix)
        error = covariance_error(small_matrix, sketch.compacted_matrix())
        assert error <= 2.0 / 6 + 1e-9

    def test_underestimates_along_every_direction(self, small_matrix):
        sketch = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=4)
        sketch.update_many(small_matrix)
        b = sketch.sketch_matrix()
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(small_matrix.shape[1])
            true = float(np.linalg.norm(small_matrix @ x) ** 2)
            approx = float(np.linalg.norm(b @ x) ** 2)
            assert approx <= true + 1e-6

    def test_shrinkage_bounds_error(self, small_matrix):
        sketch = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=5)
        sketch.update_many(small_matrix)
        error = covariance_error(small_matrix, sketch.compacted_matrix(),
                                 ) * squared_frobenius(small_matrix)
        assert error <= sketch.shrinkage + 1e-6

    def test_low_rank_input_is_exact(self, rng):
        # A matrix of rank 3 sketched with l > 3 loses nothing.
        basis = rng.standard_normal((3, 10))
        coefficients = rng.standard_normal((200, 3))
        matrix = coefficients @ basis
        sketch = FrequentDirections(dimension=10, sketch_size=5)
        sketch.update_many(matrix)
        assert covariance_error(matrix, sketch.compacted_matrix()) <= 1e-8

    def test_compacted_size(self, small_matrix):
        sketch = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=4)
        sketch.update_many(small_matrix)
        assert sketch.compacted_matrix().shape[0] <= 4
        assert sketch.sketch_matrix().shape[0] <= 8

    def test_rows_seen_and_frobenius(self, small_matrix):
        sketch = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=4)
        sketch.update_many(small_matrix)
        assert sketch.rows_seen == small_matrix.shape[0]
        assert sketch.squared_frobenius == pytest.approx(squared_frobenius(small_matrix))

    def test_from_epsilon(self):
        sketch = FrequentDirections.from_epsilon(dimension=5, epsilon=0.1)
        assert sketch.sketch_size == 20
        with pytest.raises(ValueError):
            FrequentDirections.from_epsilon(dimension=5, epsilon=0.0)
        for epsilon in ("0.1", None):
            with pytest.raises(TypeError, match="epsilon"):
                FrequentDirections.from_epsilon(dimension=5, epsilon=epsilon)

    def test_rejects_bad_rows(self):
        sketch = FrequentDirections(dimension=3, sketch_size=2)
        with pytest.raises(ValueError):
            sketch.update([1.0, 2.0])
        with pytest.raises(ValueError):
            sketch.update([1.0, float("nan"), 2.0])

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            FrequentDirections(dimension=0, sketch_size=2)
        with pytest.raises(ValueError):
            FrequentDirections(dimension=3, sketch_size=0)
        with pytest.raises(ValueError):
            FrequentDirections(dimension=3, sketch_size=2, buffer_multiplier=1)

    def test_reset(self, small_matrix):
        sketch = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=4)
        sketch.update_many(small_matrix)
        sketch.reset()
        assert sketch.rows_seen == 0
        assert sketch.squared_frobenius == 0.0
        assert sketch.sketch_matrix().shape[0] == 0

    def test_copy_is_independent(self, small_matrix):
        sketch = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=4)
        sketch.update_many(small_matrix[:100])
        clone = sketch.copy()
        sketch.update_many(small_matrix[100:])
        assert clone.rows_seen == 100
        assert sketch.rows_seen == small_matrix.shape[0]

    def test_error_bound_method(self, small_matrix):
        sketch = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=8)
        sketch.update_many(small_matrix)
        assert sketch.error_bound() == pytest.approx(
            2.0 * squared_frobenius(small_matrix) / 8
        )


class TestFrequentDirectionsMerge:
    def test_merge_preserves_guarantee(self, rng):
        matrix = rng.standard_normal((300, 8))
        half = 150
        left = FrequentDirections(dimension=8, sketch_size=6)
        right = FrequentDirections(dimension=8, sketch_size=6)
        left.update_many(matrix[:half])
        right.update_many(matrix[half:])
        merged = left.merge(right)
        # Merged error <= sum of the individual worst-case errors.
        error = covariance_error(matrix, merged.compacted_matrix())
        assert error <= 2.0 * (2.0 / 6) + 1e-9
        assert merged.squared_frobenius == pytest.approx(squared_frobenius(matrix))
        assert merged.rows_seen == 300

    def test_merge_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FrequentDirections(3, 2).merge(FrequentDirections(4, 2))

    def test_merged_error_at_most_sum_of_input_errors(self, rng):
        """The mergeability theorem (stack-and-compact): for every direction
        ``x``, the merged undercount of ``‖Ax‖²`` is bounded by the sum of
        the two inputs' worst-case errors plus the merge's own shrinkage."""
        matrix = rng.standard_normal((400, 10))
        left = FrequentDirections(dimension=10, sketch_size=5)
        right = FrequentDirections(dimension=10, sketch_size=5)
        left.update_many(matrix[:200])
        right.update_many(matrix[200:])
        merged = left.merge(right)
        sketch = merged.compacted_matrix()
        budget = merged.shrinkage + 1e-9  # data-dependent certificate
        for x in np.eye(10):
            true = float(np.linalg.norm(matrix @ x) ** 2)
            approx = float(np.linalg.norm(sketch @ x) ** 2)
            assert -1e-9 <= true - approx <= budget
        assert budget <= 2.0 * squared_frobenius(matrix) / 5 + 1e-9

    def test_merge_accepts_uncompacted_buffers(self, rng):
        """Stack-and-compact must handle inputs whose buffers hold more than
        ``ℓ`` rows (no forced pre-compaction)."""
        rows = rng.standard_normal((7, 6))
        left = FrequentDirections(dimension=6, sketch_size=4)
        right = FrequentDirections(dimension=6, sketch_size=4)
        left.update_many(rows[:4])
        right.update_many(rows[4:])
        assert left.sketch_matrix().shape[0] == 4  # buffer, uncompacted
        merged = left.merge(right)
        assert merged.rows_seen == 7
        assert merged.squared_frobenius == pytest.approx(squared_frobenius(rows))


class TestCompactedView:
    def test_view_equals_compaction_without_mutating(self, rng):
        rows = rng.standard_normal((37, 6))
        sketch = FrequentDirections(dimension=6, sketch_size=4)
        sketch.update_many(rows)
        filled_before = sketch.sketch_matrix().shape[0]
        shrinkage_before = sketch.shrinkage
        view = sketch.compacted_view()
        # Read-only: the buffer and shrinkage accumulator are untouched.
        assert sketch.sketch_matrix().shape[0] == filled_before
        assert sketch.shrinkage == shrinkage_before
        # Same value a mutating compaction would return.
        assert np.array_equal(view, sketch.compacted_matrix())

    def test_view_of_small_buffer_is_a_copy(self):
        sketch = FrequentDirections(dimension=3, sketch_size=4)
        sketch.update(np.asarray([1.0, 0.0, 0.0]))
        view = sketch.compacted_view()
        view[0, 0] = 99.0
        assert sketch.sketch_matrix()[0, 0] == 1.0

    def test_merge_sketch_size_mismatch(self):
        with pytest.raises(ValueError):
            FrequentDirections(3, 2).merge(FrequentDirections(3, 3))

    def test_merge_type_check(self):
        with pytest.raises(TypeError):
            FrequentDirections(3, 2).merge(np.zeros((2, 3)))

    def test_merge_with_empty(self, small_matrix):
        left = FrequentDirections(dimension=small_matrix.shape[1], sketch_size=4)
        left.update_many(small_matrix)
        merged = left.merge(FrequentDirections(small_matrix.shape[1], 4))
        assert merged.squared_frobenius == pytest.approx(squared_frobenius(small_matrix))
