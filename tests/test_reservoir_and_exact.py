"""Unit tests for the exact baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch.exact import ExactFrequencyCounter, ExactMatrix
from repro.utils.linalg import covariance_error


class TestExactFrequencyCounter:
    def test_exact_counts(self, zipf_sample):
        counter = ExactFrequencyCounter()
        counter.update_many(zipf_sample.items)
        for element, truth in zipf_sample.element_weights.items():
            assert counter.estimate(element) == pytest.approx(truth)
        assert counter.total_weight == pytest.approx(zipf_sample.total_weight)

    def test_unseen_element(self):
        counter = ExactFrequencyCounter()
        counter.update("a", 1.0)
        assert counter.estimate("b") == 0.0

    def test_merge(self):
        left = ExactFrequencyCounter()
        right = ExactFrequencyCounter()
        left.update("a", 1.0)
        right.update("a", 2.0)
        right.update("b", 3.0)
        merged = left.merge(right)
        assert merged.estimate("a") == pytest.approx(3.0)
        assert merged.estimate("b") == pytest.approx(3.0)
        assert merged.total_weight == pytest.approx(6.0)

    def test_merge_type_check(self):
        with pytest.raises(TypeError):
            ExactFrequencyCounter().merge(object())

    def test_heavy_hitters_are_exact(self, zipf_sample):
        counter = ExactFrequencyCounter()
        counter.update_many(zipf_sample.items)
        returned = [element for element, _ in counter.heavy_hitters(0.05)]
        assert returned == zipf_sample.heavy_hitters(0.05)


class TestExactMatrix:
    def test_exact_queries(self, small_matrix):
        store = ExactMatrix(dimension=small_matrix.shape[1])
        store.update_many(small_matrix)
        x = np.ones(small_matrix.shape[1]) / np.sqrt(small_matrix.shape[1])
        assert store.squared_norm_along(x) == pytest.approx(
            float(np.linalg.norm(small_matrix @ x) ** 2)
        )
        assert store.squared_frobenius == pytest.approx(float(np.sum(small_matrix ** 2)))
        assert store.rows_seen == small_matrix.shape[0]
        assert covariance_error(small_matrix, store.sketch_matrix()) <= 1e-12

    def test_without_row_retention(self, small_matrix):
        store = ExactMatrix(dimension=small_matrix.shape[1], keep_rows=False)
        store.update_many(small_matrix)
        with pytest.raises(RuntimeError):
            store.matrix()
        # The returned factor still answers norm queries exactly.
        assert covariance_error(small_matrix, store.sketch_matrix()) <= 1e-8

    def test_best_rank_k(self, rng):
        basis = rng.standard_normal((2, 6))
        matrix = rng.standard_normal((50, 2)) @ basis
        store = ExactMatrix(dimension=6)
        store.update_many(matrix)
        approx = store.best_rank_k(2)
        assert np.allclose(approx, matrix, atol=1e-8)

    def test_top_singular_values(self, small_matrix):
        store = ExactMatrix(dimension=small_matrix.shape[1])
        store.update_many(small_matrix)
        expected = np.linalg.svd(small_matrix, compute_uv=False)
        observed = store.top_singular_values(3)
        assert np.allclose(observed, expected[:3], rtol=1e-6)

    def test_rejects_wrong_dimension(self):
        store = ExactMatrix(dimension=4)
        with pytest.raises(ValueError):
            store.update(np.ones(3))

    def test_empty_matrix(self):
        store = ExactMatrix(dimension=3)
        assert store.matrix().shape == (0, 3)
        assert store.squared_norm_along(np.ones(3)) == 0.0
