"""Property-based tests (hypothesis) for the sketch substrates.

These check the paper-level invariants of each summary on arbitrary small
weighted streams and matrices rather than on fixed examples:

* Misra–Gries: never overestimates; underestimate bounded by ``W/ℓ``;
  merging preserves both properties.
* SpaceSaving: never underestimates retained elements beyond the tracked
  over-count; over-count bounded by ``W/ℓ``.
* Frequent Directions: ``0 ≤ ‖Ax‖² − ‖Bx‖² ≤ 2‖A‖²_F/ℓ`` for arbitrary
  matrices and directions; squared Frobenius norm tracked exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.frequent_directions import FrequentDirections
from repro.sketch.misra_gries import WeightedMisraGries
from repro.sketch.space_saving import WeightedSpaceSaving

# Streams of (element, weight) pairs over a small universe with weights in [1, 50].
weighted_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20),
              st.floats(min_value=1.0, max_value=50.0, allow_nan=False,
                        allow_infinity=False)),
    min_size=1, max_size=200,
)

small_matrices = st.integers(min_value=1, max_value=60).flatmap(
    lambda rows: st.integers(min_value=1, max_value=6).flatmap(
        lambda cols: st.lists(
            st.lists(st.floats(min_value=-10.0, max_value=10.0,
                               allow_nan=False, allow_infinity=False),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
)


def exact_counts(stream):
    counts = {}
    for element, weight in stream:
        counts[element] = counts.get(element, 0.0) + weight
    return counts


class TestMisraGriesProperties:
    @given(stream=weighted_streams, counters=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_estimates_bracketed(self, stream, counters):
        sketch = WeightedMisraGries(num_counters=counters)
        sketch.update_many(stream)
        truth = exact_counts(stream)
        total = sum(weight for _, weight in stream)
        for element, weight in truth.items():
            estimate = sketch.estimate(element)
            assert estimate <= weight + 1e-6
            assert weight - estimate <= total / counters + 1e-6

    @given(stream=weighted_streams, counters=st.integers(min_value=1, max_value=8),
           split=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_merge_preserves_guarantee(self, stream, counters, split):
        cut = int(len(stream) * split)
        left = WeightedMisraGries(num_counters=counters)
        right = WeightedMisraGries(num_counters=counters)
        left.update_many(stream[:cut])
        right.update_many(stream[cut:])
        merged = left.merge(right)
        truth = exact_counts(stream)
        total = sum(weight for _, weight in stream)
        assert merged.total_weight == np.float64(total) or abs(
            merged.total_weight - total) < 1e-6
        for element, weight in truth.items():
            estimate = merged.estimate(element)
            assert estimate <= weight + 1e-6
            assert weight - estimate <= total / counters + 1e-6


class TestSpaceSavingProperties:
    @given(stream=weighted_streams, counters=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_overestimates_bounded(self, stream, counters):
        sketch = WeightedSpaceSaving(num_counters=counters)
        sketch.update_many(stream)
        truth = exact_counts(stream)
        total = sum(weight for _, weight in stream)
        for element, estimate in sketch.to_dict().items():
            true_weight = truth.get(element, 0.0)
            assert estimate + 1e-6 >= true_weight
            assert estimate - true_weight <= total / counters + 1e-6
            assert sketch.guaranteed_weight(element) <= true_weight + 1e-6


class TestFrequentDirectionsProperties:
    @given(matrix=small_matrices, sketch_size=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_liberty_bound(self, matrix, sketch_size, seed):
        array = np.asarray(matrix, dtype=np.float64)
        sketch = FrequentDirections(dimension=array.shape[1], sketch_size=sketch_size)
        sketch.update_many(array)
        frobenius = float(np.sum(array ** 2))
        assert abs(sketch.squared_frobenius - frobenius) <= 1e-6 * max(1.0, frobenius)
        rng = np.random.default_rng(seed)
        b = sketch.sketch_matrix()
        for _ in range(5):
            x = rng.standard_normal(array.shape[1])
            norm = np.linalg.norm(x)
            if norm == 0:
                continue
            x = x / norm
            true = float(np.linalg.norm(array @ x) ** 2)
            approx = float(np.linalg.norm(b @ x) ** 2) if b.size else 0.0
            assert true - approx >= -1e-6 * max(1.0, true)
            assert true - approx <= 2.0 * frobenius / sketch_size + 1e-6
