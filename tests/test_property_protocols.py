"""Property-based tests (hypothesis) for the distributed protocols.

The deterministic protocols must satisfy their error guarantees for *every*
input stream and site assignment, so these are natural hypothesis targets:

* Heavy hitters P1/P2: all element estimates within ``ε·W``; total-weight
  estimate within ``ε·W``; recall of exact heavy hitters is perfect.
* Matrix P2: ``0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε·‖A‖²_F`` along arbitrary directions.
* Message accounting: message counters are non-negative and monotone.
* Priority sampling (P3): adjusted weights are at least the raw weights of
  the retained items, and the total-weight estimate is exact until the first
  rejection or discard.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.heavy_hitters.p1_batched_mg import BatchedMisraGriesProtocol
from repro.heavy_hitters.p2_threshold import ThresholdedUpdatesProtocol
from repro.heavy_hitters.p3_sampling import PrioritySamplingProtocol
from repro.matrix_tracking.p2_deterministic import DeterministicDirectionProtocol

weighted_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15),
              st.floats(min_value=1.0, max_value=20.0, allow_nan=False,
                        allow_infinity=False),
              st.integers(min_value=0, max_value=3)),   # site
    min_size=1, max_size=150,
)

row_streams = st.integers(min_value=2, max_value=5).flatmap(
    lambda cols: st.lists(
        st.tuples(
            st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                               allow_infinity=False),
                     min_size=cols, max_size=cols),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1, max_size=80,
    )
)


def exact_counts(stream):
    counts = {}
    for element, weight, _ in stream:
        counts[element] = counts.get(element, 0.0) + weight
    return counts


class TestHeavyHitterProtocolProperties:
    @given(stream=weighted_streams,
           epsilon=st.sampled_from([0.05, 0.1, 0.25]))
    @settings(max_examples=40, deadline=None)
    def test_p1_estimates_within_epsilon(self, stream, epsilon):
        protocol = BatchedMisraGriesProtocol(num_sites=4, epsilon=epsilon)
        for element, weight, site in stream:
            protocol.process(site, element, weight)
        total = sum(weight for _, weight, _ in stream)
        budget = epsilon * total + 1e-6
        for element, truth in exact_counts(stream).items():
            assert abs(protocol.estimate(element) - truth) <= budget
        assert abs(protocol.estimated_total_weight() - total) <= budget

    @given(stream=weighted_streams,
           epsilon=st.sampled_from([0.05, 0.1, 0.25]))
    @settings(max_examples=40, deadline=None)
    def test_p2_estimates_within_epsilon(self, stream, epsilon):
        protocol = ThresholdedUpdatesProtocol(num_sites=4, epsilon=epsilon)
        for element, weight, site in stream:
            protocol.process(site, element, weight)
        total = sum(weight for _, weight, _ in stream)
        budget = epsilon * total + 1e-6
        for element, truth in exact_counts(stream).items():
            assert abs(protocol.estimate(element) - truth) <= budget
        assert abs(protocol.estimated_total_weight() - total) <= budget

    @given(stream=weighted_streams)
    @settings(max_examples=25, deadline=None)
    def test_p1_perfect_recall_of_exact_heavy_hitters(self, stream):
        epsilon = 0.05
        phi = 0.2
        protocol = BatchedMisraGriesProtocol(num_sites=4, epsilon=epsilon)
        for element, weight, site in stream:
            protocol.process(site, element, weight)
        total = sum(weight for _, weight, _ in stream)
        returned = set(protocol.heavy_hitter_elements(phi))
        for element, truth in exact_counts(stream).items():
            if truth >= phi * total:
                assert element in returned

    @given(stream=weighted_streams)
    @settings(max_examples=25, deadline=None)
    def test_message_counters_consistent(self, stream):
        protocol = ThresholdedUpdatesProtocol(num_sites=4, epsilon=0.1)
        previous = 0
        for element, weight, site in stream:
            protocol.process(site, element, weight)
            assert protocol.total_messages >= previous
            previous = protocol.total_messages
        counts = protocol.message_counts()
        assert counts["total_messages"] == protocol.total_messages
        assert counts["upstream_messages"] + counts["downstream_messages"] \
            == protocol.total_messages

    @given(stream=weighted_streams,
           sample_size=st.integers(min_value=1, max_value=30),
           seed=st.integers(min_value=0, max_value=100))
    # Every item is forwarded and rounds still end: 6 vector messages and
    # 16 broadcasts are 22 messages for 22 items, so the total cannot tell.
    @example(stream=[(0, 2.03, 0)] * 22, sample_size=1, seed=0)
    # All forwarded, and the high-priority 10.04 sits in the queue before
    # a later arrival: a float sum of the sample disagrees with the
    # stream's in the last bit.
    @example(stream=[(0, 1.0, 0)] * 5 + [(0, 10.039368749296726, 0),
                                         (0, 1.1247429008866545, 1),
                                         (0, 1.0, 0)],
             sample_size=6, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_p3_adjusted_weights_dominate_raw_weights(self, stream, sample_size,
                                                      seed):
        protocol = PrioritySamplingProtocol(num_sites=4, epsilon=0.1,
                                            sample_size=sample_size, seed=seed)
        for element, weight, site in stream:
            protocol.process(site, element, weight)
        sample = protocol._adjusted_sample()
        assert 0 < len(sample) <= len(stream)
        for _, weight, adjusted in sample:
            assert adjusted >= weight
        assert protocol.estimated_total_weight() > 0.0
        counts = protocol.message_counts()
        if (counts.get("kind_vector", 0) == len(stream)
                and counts.get("kind_broadcast", 0) == 0):  # all forwarded, no round ended
            # The sample is the stream itself, unadjusted: compared as
            # exact (element, weight) multisets, not as float sums.
            assert Counter((element, weight) for element, weight, _ in sample) \
                == Counter((element, weight) for element, weight, _ in stream)
            assert all(adjusted == weight for _, weight, adjusted in sample)


class TestMatrixProtocolProperties:
    @given(rows=row_streams, epsilon=st.sampled_from([0.1, 0.3]),
           seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_p2_guarantee_along_random_directions(self, rows, epsilon, seed):
        dimension = len(rows[0][0])
        protocol = DeterministicDirectionProtocol(num_sites=4, dimension=dimension,
                                                  epsilon=epsilon)
        matrix = []
        for values, site in rows:
            row = np.asarray(values, dtype=np.float64)
            if not np.any(row):
                continue
            protocol.process(site, row)
            matrix.append(row)
        if not matrix:
            return
        stacked = np.vstack(matrix)
        frobenius = float(np.sum(stacked ** 2))
        sketch = protocol.sketch_matrix()
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x = rng.standard_normal(dimension)
            norm = np.linalg.norm(x)
            if norm == 0:
                continue
            x = x / norm
            true = float(np.linalg.norm(stacked @ x) ** 2)
            approx = float(np.linalg.norm(sketch @ x) ** 2) if sketch.size else 0.0
            assert true - approx >= -1e-6 * max(1.0, true)
            assert true - approx <= epsilon * frobenius + 1e-6

    @given(rows=row_streams)
    @settings(max_examples=20, deadline=None)
    def test_p2_norm_estimate_bracketed(self, rows):
        dimension = len(rows[0][0])
        epsilon = 0.2
        protocol = DeterministicDirectionProtocol(num_sites=4, dimension=dimension,
                                                  epsilon=epsilon)
        total = 0.0
        for values, site in rows:
            row = np.asarray(values, dtype=np.float64)
            if not np.any(row):
                continue
            protocol.process(site, row)
            total += float(np.dot(row, row))
        estimate = protocol.estimated_squared_frobenius()
        assert estimate <= total + 1e-6
        assert total - estimate <= 2 * epsilon * total + 1e-6
