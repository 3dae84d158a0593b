"""Integration tests: the *continuous* aspect of the tracking problem.

The paper's requirement is that the coordinator's answer is valid at *every*
time instant, not just at the end of the stream.  These tests query the
protocols at many points mid-stream (via the runner's query schedule) and
check the guarantees at each checkpoint, and they also exercise the full
pipeline (generator → partitioner → protocol → evaluation) the way the
experiment drivers do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Tracker
from repro.data.synthetic_matrix import make_pamap_like, row_stream
from repro.data.zipfian import ZipfianStreamGenerator
from repro.evaluation.metrics import evaluate_heavy_hitter_protocol
from repro.heavy_hitters import (
    BatchedMisraGriesProtocol,
    PrioritySamplingProtocol,
    ThresholdedUpdatesProtocol,
)
from repro.matrix_tracking import (
    BatchedFrequentDirectionsProtocol,
    DeterministicDirectionProtocol,
)
from repro.streaming.items import WeightedItem
from repro.streaming.partition import HashPartitioner, UniformRandomPartitioner
from repro.utils.linalg import covariance_error


class TestContinuousHeavyHitters:
    def test_estimates_valid_at_every_checkpoint(self, zipf_sample):
        epsilon = 0.05
        protocol = ThresholdedUpdatesProtocol(num_sites=8, epsilon=epsilon)
        items = [WeightedItem(element=e, weight=w) for e, w in zipf_sample.items]

        running_truth = {}
        running_total = [0.0]
        checkpoints = []

        def query(p):
            # Snapshot the protocol's estimate quality right now.
            worst = 0.0
            for element, truth in running_truth.items():
                worst = max(worst, abs(p.estimate(element) - truth))
            return worst, running_total[0]

        # Interleave feeding and truth accounting by wrapping the stream.
        def stream():
            for item in items:
                running_truth[item.element] = (
                    running_truth.get(item.element, 0.0) + item.weight)
                running_total[0] += item.weight
                yield item

        result = Tracker(protocol, chunk_size=None).run(
            stream(), query_at=list(range(200, len(items), 200)), query=query)
        checkpoints = result.observations
        assert len(checkpoints) >= 10
        for observation in checkpoints:
            worst_error, total_at_query = observation.result
            assert worst_error <= epsilon * total_at_query + 1e-6

    def test_messages_monotone_over_time(self, zipf_sample):
        protocol = BatchedMisraGriesProtocol(num_sites=5, epsilon=0.05)
        items = [WeightedItem(element=e, weight=w) for e, w in zipf_sample.items]
        result = Tracker(protocol, chunk_size=None).run(
            items, query_at=list(range(100, len(items), 500)),
            query=lambda p: p.total_messages)
        counts = [obs.result for obs in result.observations]
        assert counts == sorted(counts)


class TestContinuousMatrixTracking:
    def test_error_valid_at_every_checkpoint(self, low_rank_dataset):
        epsilon = 0.15
        protocol = DeterministicDirectionProtocol(
            num_sites=6, dimension=low_rank_dataset.dimension, epsilon=epsilon)
        rows = low_rank_dataset.rows
        # The truth at each checkpoint is the prefix fed so far.
        result = Tracker(protocol, chunk_size=None).run(
            row_stream(rows),
            query_at=list(range(100, low_rank_dataset.num_rows, 150)),
            query=lambda p: covariance_error(rows[:p.items_processed],
                                             p.sketch_matrix()),
        )
        assert len(result.observations) >= 5
        for observation in result.observations:
            assert observation.result <= epsilon + 1e-9

    def test_batched_fd_protocol_under_random_partitioning(self, low_rank_dataset):
        epsilon = 0.2
        protocol = BatchedFrequentDirectionsProtocol(
            num_sites=6, dimension=low_rank_dataset.dimension, epsilon=epsilon)
        partitioner = UniformRandomPartitioner(num_sites=6, seed=3)
        Tracker(protocol, chunk_size=None, partitioner=partitioner).run(
            row_stream(low_rank_dataset.rows))
        assert covariance_error(low_rank_dataset.rows,
                                protocol.sketch_matrix()) <= epsilon + 1e-9


class TestSkewedPartitioning:
    def test_hash_partitioning_keeps_guarantees(self, zipf_sample):
        # All copies of an element land on one site: the worst case for
        # per-site thresholds, still covered by the analysis.
        epsilon = 0.05
        protocol = ThresholdedUpdatesProtocol(num_sites=8, epsilon=epsilon)
        partitioner = HashPartitioner(num_sites=8)
        items = [WeightedItem(element=e, weight=w) for e, w in zipf_sample.items]
        Tracker(protocol, chunk_size=None, partitioner=partitioner).run(items)
        evaluation = evaluate_heavy_hitter_protocol(
            protocol, zipf_sample.element_weights, phi=0.05,
            total_weight=zipf_sample.total_weight)
        assert evaluation.recall == 1.0
        budget = epsilon * zipf_sample.total_weight
        for element, truth in zipf_sample.element_weights.items():
            assert abs(protocol.estimate(element) - truth) <= budget + 1e-6

    def test_block_partitioning_matrix(self, high_rank_dataset):
        # Contiguous blocks per site (e.g. one site joins late).
        epsilon = 0.15
        protocol = DeterministicDirectionProtocol(
            num_sites=4, dimension=high_rank_dataset.dimension, epsilon=epsilon)
        rows = high_rank_dataset.rows
        quarters = np.array_split(np.arange(rows.shape[0]), 4)
        for site, indices in enumerate(quarters):
            for index in indices:
                protocol.process(site, rows[index])
        assert covariance_error(rows, protocol.sketch_matrix()) <= epsilon + 1e-9


class TestProtocolAgreement:
    def test_deterministic_and_sampling_agree_on_heavy_elements(self):
        generator = ZipfianStreamGenerator(universe_size=300, skew=2.0, beta=50.0,
                                           seed=13)
        sample = generator.generate(4_000)
        deterministic = ThresholdedUpdatesProtocol(num_sites=6, epsilon=0.02)
        sampled = PrioritySamplingProtocol(num_sites=6, epsilon=0.02,
                                           sample_size=600, seed=0)
        for index, (element, weight) in enumerate(sample.items):
            deterministic.process(index % 6, element, weight)
            sampled.process(index % 6, element, weight)
        top = set(sample.heavy_hitters(0.05))
        assert top <= set(deterministic.heavy_hitter_elements(0.05))
        assert top <= set(sampled.heavy_hitter_elements(0.05))

    def test_matrix_protocols_agree_with_exact_covariance(self, low_rank_dataset):
        protocol = DeterministicDirectionProtocol(
            num_sites=5, dimension=low_rank_dataset.dimension, epsilon=0.1)
        for index, row in enumerate(low_rank_dataset.rows):
            protocol.process(index % 5, row)
        exact = low_rank_dataset.rows.T @ low_rank_dataset.rows
        approx = protocol.covariance()
        gap = np.linalg.norm(exact - approx, 2)
        assert gap <= 0.1 * low_rank_dataset.squared_frobenius + 1e-6
        # The top eigenvector of the approximate covariance is aligned with
        # the true one (the downstream PCA use case).
        true_top = np.linalg.eigh(exact)[1][:, -1]
        approx_top = np.linalg.eigh(approx)[1][:, -1]
        assert abs(float(true_top @ approx_top)) > 0.95
