"""Unit tests for matrix tracking protocols P1 and P2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matrix_tracking.p1_batched_fd import BatchedFrequentDirectionsProtocol
from repro.matrix_tracking.p2_deterministic import DeterministicDirectionProtocol
from repro.streaming.partition import RoundRobinPartitioner
from repro.utils.linalg import covariance_error, squared_frobenius


def feed(protocol, rows):
    partitioner = RoundRobinPartitioner(protocol.num_sites)
    for index in range(rows.shape[0]):
        protocol.process(partitioner.assign(index, None), rows[index])


def error(protocol, rows):
    """The paper's ``err`` of ``protocol`` against the rows it was fed."""
    return covariance_error(rows, protocol.sketch_matrix())


class TestMatrixProtocolP1:
    def test_error_within_epsilon(self, low_rank_dataset):
        epsilon = 0.1
        protocol = BatchedFrequentDirectionsProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=epsilon)
        feed(protocol, low_rank_dataset.rows)
        assert error(protocol, low_rank_dataset.rows) <= epsilon + 1e-9

    def test_error_on_high_rank_data(self, high_rank_dataset):
        epsilon = 0.2
        protocol = BatchedFrequentDirectionsProtocol(
            num_sites=8, dimension=high_rank_dataset.dimension, epsilon=epsilon)
        feed(protocol, high_rank_dataset.rows)
        assert error(protocol, high_rank_dataset.rows) <= epsilon + 1e-9

    def test_sketch_never_overestimates_norms(self, low_rank_dataset, rng):
        protocol = BatchedFrequentDirectionsProtocol(
            num_sites=4, dimension=low_rank_dataset.dimension, epsilon=0.2)
        feed(protocol, low_rank_dataset.rows)
        for _ in range(10):
            x = rng.standard_normal(low_rank_dataset.dimension)
            x /= np.linalg.norm(x)
            true = float(np.linalg.norm(low_rank_dataset.rows @ x) ** 2)
            assert protocol.squared_norm_along(x) <= true + 1e-6

    def test_norm_estimate_close(self, low_rank_dataset):
        protocol = BatchedFrequentDirectionsProtocol(
            num_sites=4, dimension=low_rank_dataset.dimension, epsilon=0.1)
        feed(protocol, low_rank_dataset.rows)
        assert protocol.estimated_squared_frobenius() == pytest.approx(
            low_rank_dataset.squared_frobenius, rel=0.1)

    def test_flush_all_sites_reduces_error(self, low_rank_dataset):
        protocol = BatchedFrequentDirectionsProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.3)
        feed(protocol, low_rank_dataset.rows)
        before = error(protocol, low_rank_dataset.rows)
        protocol.flush_all_sites()
        after = error(protocol, low_rank_dataset.rows)
        assert after <= before + 1e-9

    def test_sketch_size_default_from_epsilon(self):
        protocol = BatchedFrequentDirectionsProtocol(num_sites=2, dimension=5,
                                                     epsilon=0.1)
        assert protocol.sketch_size == 40

    def test_messages_grow_with_stream(self, low_rank_dataset):
        protocol = BatchedFrequentDirectionsProtocol(
            num_sites=4, dimension=low_rank_dataset.dimension, epsilon=0.1)
        feed(protocol, low_rank_dataset.rows[:200])
        first = protocol.total_messages
        feed(protocol, low_rank_dataset.rows[200:400])
        assert protocol.total_messages > first

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BatchedFrequentDirectionsProtocol(num_sites=0, dimension=3, epsilon=0.1)
        with pytest.raises(ValueError):
            BatchedFrequentDirectionsProtocol(num_sites=2, dimension=3, epsilon=0.0)

    def test_wrong_row_dimension_rejected(self):
        protocol = BatchedFrequentDirectionsProtocol(num_sites=2, dimension=3,
                                                     epsilon=0.1)
        with pytest.raises(ValueError):
            protocol.process(0, np.ones(4))


class TestMatrixProtocolP2:
    def test_error_within_epsilon_low_rank(self, low_rank_dataset):
        epsilon = 0.1
        protocol = DeterministicDirectionProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=epsilon)
        feed(protocol, low_rank_dataset.rows)
        assert error(protocol, low_rank_dataset.rows) <= epsilon + 1e-9

    def test_error_within_epsilon_high_rank(self, high_rank_dataset):
        epsilon = 0.1
        protocol = DeterministicDirectionProtocol(
            num_sites=8, dimension=high_rank_dataset.dimension, epsilon=epsilon)
        feed(protocol, high_rank_dataset.rows)
        assert error(protocol, high_rank_dataset.rows) <= epsilon + 1e-9

    def test_one_sided_guarantee(self, low_rank_dataset, rng):
        # Theorem 4: 0 <= ||Ax||^2 - ||Bx||^2, i.e. the sketch never
        # overestimates the norm along any direction.
        protocol = DeterministicDirectionProtocol(
            num_sites=4, dimension=low_rank_dataset.dimension, epsilon=0.1)
        feed(protocol, low_rank_dataset.rows)
        for _ in range(15):
            x = rng.standard_normal(low_rank_dataset.dimension)
            x /= np.linalg.norm(x)
            true = float(np.linalg.norm(low_rank_dataset.rows @ x) ** 2)
            assert protocol.squared_norm_along(x) <= true + 1e-6

    def test_norm_estimate_within_two_epsilon(self, low_rank_dataset):
        epsilon = 0.1
        protocol = DeterministicDirectionProtocol(
            num_sites=6, dimension=low_rank_dataset.dimension, epsilon=epsilon)
        feed(protocol, low_rank_dataset.rows)
        truth = low_rank_dataset.squared_frobenius
        assert abs(protocol.estimated_squared_frobenius() - truth) \
            <= 2 * epsilon * truth + 1e-6

    def test_fewer_messages_than_stream_length(self, low_rank_dataset):
        protocol = DeterministicDirectionProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.2)
        feed(protocol, low_rank_dataset.rows)
        assert protocol.total_messages < low_rank_dataset.num_rows

    def test_error_decreases_with_smaller_epsilon(self, high_rank_dataset):
        loose = DeterministicDirectionProtocol(
            num_sites=6, dimension=high_rank_dataset.dimension, epsilon=0.5)
        tight = DeterministicDirectionProtocol(
            num_sites=6, dimension=high_rank_dataset.dimension, epsilon=0.02)
        feed(loose, high_rank_dataset.rows)
        feed(tight, high_rank_dataset.rows)
        assert error(tight, high_rank_dataset.rows) \
            <= error(loose, high_rank_dataset.rows) + 1e-9
        assert tight.total_messages >= loose.total_messages

    def test_coordinator_sketch_compression(self, low_rank_dataset):
        protocol = DeterministicDirectionProtocol(
            num_sites=4, dimension=low_rank_dataset.dimension, epsilon=0.1,
            coordinator_sketch_size=60)
        feed(protocol, low_rank_dataset.rows)
        assert protocol.sketch_matrix().shape[0] <= 60
        # Compression adds at most 2/60 of the squared norm to the error.
        assert error(protocol, low_rank_dataset.rows) <= 0.1 + 2.0 / 60 + 1e-9

    def test_rounds_completed(self, low_rank_dataset):
        protocol = DeterministicDirectionProtocol(
            num_sites=4, dimension=low_rank_dataset.dimension, epsilon=0.1)
        feed(protocol, low_rank_dataset.rows)
        assert protocol.rounds_completed >= 1

    def test_missing_mass_matches_direct_computation(self, low_rank_dataset):
        rows = low_rank_dataset.rows
        protocol = DeterministicDirectionProtocol(
            num_sites=4, dimension=low_rank_dataset.dimension, epsilon=0.2)
        feed(protocol, rows)
        missing, f2 = protocol.missing_mass()
        sketch = protocol.sketch_matrix()
        assert f2 == pytest.approx(squared_frobenius(rows), rel=1e-12)
        assert np.allclose(missing, rows.T @ rows - sketch.T @ sketch,
                           rtol=0, atol=1e-12 * f2)

    def test_empty_protocol_state(self):
        protocol = DeterministicDirectionProtocol(num_sites=2, dimension=3,
                                                  epsilon=0.1)
        assert protocol.sketch_matrix().shape == (0, 3)
        assert protocol.estimated_squared_frobenius() == 0.0
        missing, f2 = protocol.missing_mass()
        assert f2 == 0.0 and not missing.any()
