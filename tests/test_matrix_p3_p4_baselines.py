"""Unit tests for matrix protocols P3 (wor/wr), P4 and the centralized baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matrix_tracking.baselines import CentralizedFDBaseline, CentralizedSVDBaseline
from repro.matrix_tracking.p2_deterministic import DeterministicDirectionProtocol
from repro.matrix_tracking.p3_sampling import (
    MatrixPrioritySamplingProtocol,
    WithReplacementMatrixSamplingProtocol,
)
from repro.matrix_tracking.p4_singular_directions import SingularDirectionUpdateProtocol
from repro.streaming.partition import RoundRobinPartitioner
from repro.utils.linalg import covariance_error


def feed(protocol, rows):
    partitioner = RoundRobinPartitioner(protocol.num_sites)
    for index in range(rows.shape[0]):
        protocol.process(partitioner.assign(index, None), rows[index])


def error(protocol, rows):
    """The paper's ``err`` of ``protocol`` against the rows it was fed."""
    return covariance_error(rows, protocol.sketch_matrix())


class TestMatrixProtocolP3WithoutReplacement:
    def test_error_reasonable_on_low_rank(self, low_rank_dataset):
        protocol = MatrixPrioritySamplingProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.1,
            sample_size=500, seed=0)
        feed(protocol, low_rank_dataset.rows)
        assert error(protocol, low_rank_dataset.rows) <= 0.2

    def test_error_reasonable_on_high_rank(self, high_rank_dataset):
        protocol = MatrixPrioritySamplingProtocol(
            num_sites=8, dimension=high_rank_dataset.dimension, epsilon=0.1,
            sample_size=500, seed=1)
        feed(protocol, high_rank_dataset.rows)
        assert error(protocol, high_rank_dataset.rows) <= 0.2

    def test_exact_when_sample_covers_stream(self, rng):
        # Rows with squared norm >= 1 are never rejected while the initial
        # threshold (tau = 1) is in force, so a large enough sample keeps the
        # whole stream and the coordinator is exact.
        rows = rng.uniform(0.5, 1.0, size=(40, 5))
        protocol = MatrixPrioritySamplingProtocol(
            num_sites=4, dimension=5, epsilon=0.5, sample_size=500, seed=0)
        feed(protocol, rows)
        assert error(protocol, rows) <= 1e-9
        assert protocol.estimated_squared_frobenius() == pytest.approx(
            float(np.sum(rows ** 2)))

    def test_messages_bounded_by_stream_and_below_it_for_small_sample(
            self, low_rank_dataset):
        protocol = MatrixPrioritySamplingProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.1,
            sample_size=100, seed=2)
        feed(protocol, low_rank_dataset.rows)
        assert protocol.total_messages < low_rank_dataset.num_rows

    def test_frobenius_estimate(self, low_rank_dataset):
        protocol = MatrixPrioritySamplingProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.1,
            sample_size=400, seed=3)
        feed(protocol, low_rank_dataset.rows)
        assert protocol.estimated_squared_frobenius() == pytest.approx(
            low_rank_dataset.squared_frobenius, rel=0.3)

    def test_rounds_and_threshold(self, low_rank_dataset):
        protocol = MatrixPrioritySamplingProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.1,
            sample_size=50, seed=4)
        feed(protocol, low_rank_dataset.rows)
        assert protocol.threshold == pytest.approx(2.0 ** protocol.rounds_completed)

    def test_zero_rows_are_ignored(self):
        protocol = MatrixPrioritySamplingProtocol(
            num_sites=2, dimension=3, epsilon=0.5, sample_size=10, seed=0)
        protocol.process(0, np.zeros(3))
        assert protocol.total_messages == 0
        assert protocol.items_processed == 1


class TestMatrixProtocolP3WithReplacement:
    def test_error_reasonable(self, low_rank_dataset):
        protocol = WithReplacementMatrixSamplingProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.1,
            num_samplers=300, seed=0)
        feed(protocol, low_rank_dataset.rows)
        assert error(protocol, low_rank_dataset.rows) <= 0.3

    def test_wor_beats_wr_in_error_or_messages(self, low_rank_dataset):
        # Table 1 finding: without-replacement sampling dominates.  Averaged
        # over the stream used here it should not lose on both axes.
        wor = MatrixPrioritySamplingProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.1,
            sample_size=200, seed=5)
        wr = WithReplacementMatrixSamplingProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.1,
            num_samplers=200, seed=5)
        feed(wor, low_rank_dataset.rows)
        feed(wr, low_rank_dataset.rows)
        rows = low_rank_dataset.rows
        assert (error(wor, rows) <= error(wr, rows) + 0.05
                or wor.total_messages <= wr.total_messages)

    def test_sketch_rows_at_most_num_samplers(self, low_rank_dataset):
        protocol = WithReplacementMatrixSamplingProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.1,
            num_samplers=64, seed=1)
        feed(protocol, low_rank_dataset.rows)
        assert protocol.sketch_matrix().shape[0] <= 64

    def test_exact_mode_small_stream(self, rng):
        rows = rng.standard_normal((20, 4))
        protocol = WithReplacementMatrixSamplingProtocol(
            num_sites=2, dimension=4, epsilon=0.5, num_samplers=16, seed=0)
        feed(protocol, rows)
        assert protocol.estimated_squared_frobenius() == pytest.approx(
            float(np.sum(rows ** 2)), rel=0.5)


class TestMatrixProtocolP4:
    def test_reproduces_negative_result_on_low_rank_data(self, low_rank_dataset):
        # The appendix-C protocol keeps a fixed (axis-aligned) approximation
        # basis, so on correlated low-rank data its error should be much worse
        # than P2's at the same epsilon.
        epsilon = 0.05
        p2 = DeterministicDirectionProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=epsilon)
        p4 = SingularDirectionUpdateProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=epsilon,
            seed=0)
        feed(p2, low_rank_dataset.rows)
        feed(p4, low_rank_dataset.rows)
        assert error(p4, low_rank_dataset.rows) > 3 * error(p2, low_rank_dataset.rows)

    def test_error_not_controlled_by_epsilon(self, low_rank_dataset):
        tight = SingularDirectionUpdateProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.01, seed=1)
        feed(tight, low_rank_dataset.rows)
        assert error(tight, low_rank_dataset.rows) > 0.05

    def test_communication_is_modest(self, low_rank_dataset):
        protocol = SingularDirectionUpdateProtocol(
            num_sites=8, dimension=low_rank_dataset.dimension, epsilon=0.1, seed=2)
        feed(protocol, low_rank_dataset.rows)
        assert protocol.total_messages < low_rank_dataset.num_rows

    def test_sketch_has_d_rows_per_reporting_site(self, low_rank_dataset):
        protocol = SingularDirectionUpdateProtocol(
            num_sites=4, dimension=low_rank_dataset.dimension, epsilon=0.1, seed=3)
        feed(protocol, low_rank_dataset.rows[:500])
        rows = protocol.sketch_matrix().shape[0]
        assert rows % low_rank_dataset.dimension == 0
        assert rows <= 4 * low_rank_dataset.dimension

    @pytest.mark.parametrize("batched", [False, True], ids=["item", "batch"])
    def test_z_is_the_column_energies(self, batched):
        # The basis never rotates from e_1..e_d, so z_i² = ‖A e_i‖² + 1/p.
        # ‖A‖²_F stays below 2/ε here, so p stays capped at 1 (no 1/p, every
        # row reports), and the dyadic entries make every z_i exact: BᵀB is
        # exactly diag(AᵀA), whatever AᵀA holds off the diagonal.
        rows = np.array([[0.75, 0.375, 0.5],
                         [1.0, 0.5, 0.0]])
        gram = rows.T @ rows
        assert np.count_nonzero(gram - np.diag(np.diag(gram))) > 0
        protocol = SingularDirectionUpdateProtocol(
            num_sites=1, dimension=3, epsilon=0.5, seed=0)
        if batched:
            protocol.process_batch(0, rows)
        else:
            feed(protocol, rows)
        assert protocol._reporting_rate() == 1.0
        np.testing.assert_array_equal(protocol.covariance(),
                                      np.diag(np.diag(gram)))


class TestCentralizedBaselines:
    def test_svd_baseline_exact_without_rank(self, low_rank_dataset):
        protocol = CentralizedSVDBaseline(num_sites=4,
                                          dimension=low_rank_dataset.dimension)
        feed(protocol, low_rank_dataset.rows)
        assert error(protocol, low_rank_dataset.rows) <= 1e-10
        assert protocol.total_messages == low_rank_dataset.num_rows

    def test_svd_baseline_rank_truncation(self, high_rank_dataset):
        protocol = CentralizedSVDBaseline(num_sites=4,
                                          dimension=high_rank_dataset.dimension,
                                          rank=10)
        feed(protocol, high_rank_dataset.rows)
        # High-rank data keeps residual error after truncation.
        assert error(protocol, high_rank_dataset.rows) > 1e-4
        assert protocol.rank == 10

    def test_svd_rank_truncation_is_best_possible(self, low_rank_dataset):
        rank = low_rank_dataset.recommended_rank
        protocol = CentralizedSVDBaseline(num_sites=4,
                                          dimension=low_rank_dataset.dimension,
                                          rank=rank)
        feed(protocol, low_rank_dataset.rows)
        # The low-rank surrogate has effective rank ~12 << 30, so the rank-30
        # SVD error is essentially zero.
        assert error(protocol, low_rank_dataset.rows) <= 1e-5

    def test_fd_baseline_error_bound(self, high_rank_dataset):
        sketch_size = 45
        protocol = CentralizedFDBaseline(num_sites=4,
                                         dimension=high_rank_dataset.dimension,
                                         sketch_size=sketch_size)
        feed(protocol, high_rank_dataset.rows)
        assert error(protocol, high_rank_dataset.rows) <= 2.0 / sketch_size + 1e-9
        assert protocol.total_messages == high_rank_dataset.num_rows
        assert protocol.sketch_size == sketch_size

    def test_fd_baseline_beats_nothing_is_free(self, low_rank_dataset):
        protocol = CentralizedFDBaseline(num_sites=4,
                                         dimension=low_rank_dataset.dimension,
                                         sketch_size=low_rank_dataset.recommended_rank)
        feed(protocol, low_rank_dataset.rows)
        # Low-rank data: FD with sketch size above the effective rank is
        # near-exact.
        assert error(protocol, low_rank_dataset.rows) <= 1e-4

    def test_empty_baselines(self):
        svd = CentralizedSVDBaseline(num_sites=2, dimension=3, rank=2)
        fd = CentralizedFDBaseline(num_sites=2, dimension=3, sketch_size=2)
        assert svd.sketch_matrix().shape == (0, 3)
        assert fd.sketch_matrix().shape[0] == 0
        assert svd.estimated_squared_frobenius() == 0.0
