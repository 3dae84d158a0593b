"""Batch-vs-item equivalence for every sketch and every distributed protocol.

Equivalence has two strengths, matching each kernel's documented semantics:

* **Bit-identical** — the batch kernel performs the same arithmetic as
  repeated single updates (Frequent Directions' block appends, the default
  loop fallbacks).  These compare
  exact state.
* **Bound-identical** — the batch kernel aggregates duplicates first
  (Misra-Gries, SpaceSaving) or the protocol's coordination sees a
  site-grouped interleaving (randomized P3/P4 with fixed seeds), so retained
  state may differ while the summary's error guarantee holds.  These compare
  against ground truth within the guarantee, for both paths.

Protocol comparisons replay the *same site-grouped order* through the
per-item ``observe`` path that ``observe_batch`` uses internally, making the
deterministic protocols (and the seeded randomized ones, whose per-site
generators are consumed identically) exactly reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.heavy_hitters import (
    BatchedMisraGriesProtocol,
    ExactForwardingProtocol,
    PrioritySamplingProtocol,
    RandomizedReportingProtocol,
    ThresholdedUpdatesProtocol,
    WithReplacementSamplingProtocol,
)
from repro.matrix_tracking import (
    BatchedFrequentDirectionsProtocol,
    CentralizedFDBaseline,
    CentralizedSVDBaseline,
    DeterministicDirectionProtocol,
    MatrixPrioritySamplingProtocol,
    SingularDirectionUpdateProtocol,
    WithReplacementMatrixSamplingProtocol,
)
from repro.sketch import (
    ExactFrequencyCounter,
    ExactMatrix,
    FrequencySketch,
    FrequentDirections,
    WeightedMisraGries,
    WeightedSpaceSaving,
)
from repro.streaming.items import MatrixRowBatch, WeightedItemBatch
from repro.streaming.partition import RoundRobinPartitioner


@pytest.fixture(scope="module")
def weighted_batch(zipf_sample):
    items = zipf_sample.items[:2_000]
    return ([element for element, _ in items],
            np.asarray([weight for _, weight in items]))


@pytest.fixture(scope="module")
def truth(zipf_sample):
    items = zipf_sample.items[:2_000]
    grouped = {}
    for element, weight in items:
        grouped[element] = grouped.get(element, 0.0) + weight
    return grouped


# --------------------------------------------------------------------- sketches
class TestFrequencySketchBatchEquivalence:
    def test_exact_counter_matches(self, weighted_batch, truth):
        elements, weights = weighted_batch
        batched = ExactFrequencyCounter()
        batched.update_batch(elements, weights)
        for element, weight in truth.items():
            assert batched.estimate(element) == pytest.approx(weight)
        assert batched.total_weight == pytest.approx(sum(weights))

    def test_misra_gries_bound_identical(self, weighted_batch, truth):
        elements, weights = weighted_batch
        sequential = WeightedMisraGries(num_counters=40)
        batched = WeightedMisraGries(num_counters=40)
        for element, weight in zip(elements, weights):
            sequential.update(element, weight)
        batched.update_batch(elements, weights)
        assert batched.total_weight == pytest.approx(sequential.total_weight)
        # Both paths obey the Misra-Gries guarantee against ground truth;
        # the batched path's data-dependent bound is never looser than W/l.
        assert batched.true_error_bound() <= batched.error_bound() + 1e-9
        for sketch in (sequential, batched):
            for element, weight in truth.items():
                error = weight - sketch.estimate(element)
                assert -1e-9 <= error <= sketch.true_error_bound() + 1e-9

    def test_misra_gries_small_and_large_batches_agree_on_totals(self):
        # The dict sweep (small batches) and np.unique path (large batches)
        # must aggregate identically.
        elements = [i % 7 for i in range(512)]
        weights = np.linspace(1.0, 2.0, 512)
        small_path = WeightedMisraGries(num_counters=10)
        for start in range(0, 512, 32):  # below the np.unique cutoff
            small_path.update_batch(elements[start:start + 32],
                                    weights[start:start + 32])
        large_path = WeightedMisraGries(num_counters=10)
        large_path.update_batch(elements, weights)
        for element in range(7):
            assert small_path.estimate(element) == pytest.approx(
                large_path.estimate(element))

    def test_space_saving_bound_identical(self, weighted_batch, truth):
        elements, weights = weighted_batch
        batched = WeightedSpaceSaving(num_counters=40)
        batched.update_batch(elements, weights)
        assert batched.total_weight == pytest.approx(float(sum(weights)))
        for element, weight in truth.items():
            estimate = batched.estimate(element)
            if estimate > 0.0:  # retained: over-estimate within W/l
                assert estimate >= weight - 1e-9
                assert estimate <= weight + batched.error_bound() + 1e-9

    def test_base_class_fallback_loops_update(self):
        class LoggingSketch(FrequencySketch):
            def __init__(self):
                self.calls = []

            def update(self, element, weight=1.0):
                self.calls.append((element, weight))

            def estimate(self, element):
                return 0.0

            @property
            def total_weight(self):
                return 0.0

            def to_dict(self):
                return {}

        sketch = LoggingSketch()
        sketch.update_batch(["a", "b"], [1.0, 2.0])
        sketch.update_batch(["c"])
        assert sketch.calls == [("a", 1.0), ("b", 2.0), ("c", 1.0)]


class TestMatrixSketchBatchEquivalence:
    def test_frequent_directions_bit_identical(self, rng):
        rows = rng.standard_normal((700, 10))
        sequential = FrequentDirections(dimension=10, sketch_size=6)
        batched = FrequentDirections(dimension=10, sketch_size=6)
        for row in rows:
            sequential.update(row)
        for start in range(0, 700, 64):  # uneven blocks straddle compactions
            batched.append_batch(rows[start:start + 64])
        assert np.array_equal(sequential.sketch_matrix(), batched.sketch_matrix())
        assert batched.rows_seen == sequential.rows_seen
        assert batched.shrinkage == pytest.approx(sequential.shrinkage)
        assert batched.squared_frobenius == pytest.approx(sequential.squared_frobenius)

    def test_exact_matrix_matches(self, rng):
        rows = rng.standard_normal((300, 8))
        sequential = ExactMatrix(dimension=8)
        batched = ExactMatrix(dimension=8)
        for row in rows:
            sequential.update(row)
        batched.append_batch(rows)
        assert np.allclose(sequential.covariance(), batched.covariance())
        assert batched.rows_seen == sequential.rows_seen
        assert np.array_equal(sequential.matrix(), batched.matrix())


# -------------------------------------------------------------------- protocols
def _grouped_replay(protocol, site_ids, items, chunk: int):
    """Replay (site, item) pairs through ``observe`` in observe_batch's order."""
    site_ids = np.asarray(site_ids)
    for start in range(0, len(items), chunk):
        segment_sites = site_ids[start:start + chunk]
        order = np.argsort(segment_sites, kind="stable")
        for position in order:
            index = start + int(position)
            protocol.observe(int(site_ids[index]), items[index])


def _hh_streams(zipf_sample, num_sites: int):
    items = zipf_sample.items[:2_000]
    batch = WeightedItemBatch.from_pairs(items)
    sites = RoundRobinPartitioner(num_sites).assign_batch(
        np.arange(len(items)), batch)
    return items, batch, sites


HH_EXACT_FACTORIES = {
    "P2": lambda m: ThresholdedUpdatesProtocol(num_sites=m, epsilon=0.05),
    "P3": lambda m: PrioritySamplingProtocol(num_sites=m, epsilon=0.05,
                                             sample_size=300, seed=17),
    "P3wr": lambda m: WithReplacementSamplingProtocol(num_sites=m, epsilon=0.05,
                                                      num_samplers=50, seed=17),
    "P4": lambda m: RandomizedReportingProtocol(num_sites=m, epsilon=0.05,
                                                seed=17),
    "exact": lambda m: ExactForwardingProtocol(num_sites=m),
}


class TestHeavyHitterProtocolEquivalence:
    @pytest.mark.parametrize("name", sorted(HH_EXACT_FACTORIES))
    def test_batch_matches_grouped_item_order(self, name, zipf_sample):
        """Default process_batch protocols: bit-identical to grouped replay."""
        num_sites, chunk = 6, 512
        items, batch, sites = _hh_streams(zipf_sample, num_sites)
        reference = HH_EXACT_FACTORIES[name](num_sites)
        _grouped_replay(reference, sites, items, chunk)
        batched = HH_EXACT_FACTORIES[name](num_sites)
        for start in range(0, len(items), chunk):
            batched.observe_batch(sites[start:start + chunk],
                                  batch[start:start + chunk])
        assert batched.items_processed == reference.items_processed
        assert batched.estimated_total_weight() == pytest.approx(
            reference.estimated_total_weight())
        reference_estimates = reference.estimates()
        batched_estimates = batched.estimates()
        assert set(batched_estimates) == set(reference_estimates)
        for element, estimate in reference_estimates.items():
            assert batched_estimates[element] == pytest.approx(estimate)
        assert batched.total_messages == reference.total_messages

    def test_p1_bound_identical(self, zipf_sample):
        """P1 aggregates per segment: both paths meet the epsilon guarantee."""
        num_sites, epsilon, chunk = 6, 0.05, 512
        items, batch, sites = _hh_streams(zipf_sample, num_sites)
        truth = {}
        for element, weight in items:
            truth[element] = truth.get(element, 0.0) + weight
        total = sum(truth.values())

        reference = BatchedMisraGriesProtocol(num_sites=num_sites, epsilon=epsilon)
        _grouped_replay(reference, sites, items, chunk)
        batched = BatchedMisraGriesProtocol(num_sites=num_sites, epsilon=epsilon)
        for start in range(0, len(items), chunk):
            batched.observe_batch(sites[start:start + chunk],
                                  batch[start:start + chunk])

        assert batched.items_processed == reference.items_processed
        assert batched.observed_weight == pytest.approx(reference.observed_weight)
        budget = epsilon * total + 1e-6
        for protocol in (reference, batched):
            for element, weight in truth.items():
                assert abs(protocol.estimate(element) - weight) <= budget
        # Restricted to the prefix's own heavy hitters:
        prefix_hitters = {element for element, weight in truth.items()
                          if weight >= 0.05 * total}
        assert prefix_hitters <= set(batched.heavy_hitter_elements(0.05))
        assert prefix_hitters <= set(reference.heavy_hitter_elements(0.05))
        # Flush timing matches, so the communication traces agree closely.
        assert batched.total_messages == pytest.approx(reference.total_messages,
                                                       rel=0.05)


MATRIX_EXACT_FACTORIES = {
    "P2": lambda m, d: DeterministicDirectionProtocol(num_sites=m, dimension=d,
                                                      epsilon=0.2),
    "P3": lambda m, d: MatrixPrioritySamplingProtocol(num_sites=m, dimension=d,
                                                      epsilon=0.2,
                                                      sample_size=150, seed=23),
    "P3wr": lambda m, d: WithReplacementMatrixSamplingProtocol(
        num_sites=m, dimension=d, epsilon=0.2, num_samplers=40, seed=23),
    "P4": lambda m, d: SingularDirectionUpdateProtocol(num_sites=m, dimension=d,
                                                       epsilon=0.2, seed=23),
    "FD": lambda m, d: CentralizedFDBaseline(num_sites=m, dimension=d,
                                             sketch_size=10),
    "SVD": lambda m, d: CentralizedSVDBaseline(num_sites=m, dimension=d),
}


class TestMatrixProtocolEquivalence:
    @pytest.mark.parametrize("name", sorted(MATRIX_EXACT_FACTORIES))
    def test_batch_matches_grouped_item_order(self, name, low_rank_dataset):
        num_sites, chunk = 5, 256
        rows = low_rank_dataset.rows[:1_200]
        dimension = low_rank_dataset.dimension
        batch = MatrixRowBatch(values=rows)
        sites = RoundRobinPartitioner(num_sites).assign_batch(
            np.arange(rows.shape[0]), batch)
        reference = MATRIX_EXACT_FACTORIES[name](num_sites, dimension)
        _grouped_replay(reference, sites, list(rows), chunk)
        batched = MATRIX_EXACT_FACTORIES[name](num_sites, dimension)
        for start in range(0, rows.shape[0], chunk):
            batched.observe_batch(sites[start:start + chunk],
                                  batch[start:start + chunk])
        assert batched.items_processed == reference.items_processed
        assert batched.total_messages == reference.total_messages
        assert batched.estimated_squared_frobenius() == pytest.approx(
            reference.estimated_squared_frobenius())
        assert np.allclose(batched.sketch_matrix(), reference.sketch_matrix())
        assert np.allclose(batched.covariance(), reference.covariance())

    def test_p1_matches_grouped_item_order(self, low_rank_dataset):
        """Matrix P1's block kernel reproduces grouped per-row ingestion."""
        num_sites, chunk = 5, 256
        rows = low_rank_dataset.rows[:1_200]
        dimension = low_rank_dataset.dimension
        batch = MatrixRowBatch(values=rows)
        sites = RoundRobinPartitioner(num_sites).assign_batch(
            np.arange(rows.shape[0]), batch)
        reference = BatchedFrequentDirectionsProtocol(
            num_sites=num_sites, dimension=dimension, epsilon=0.2)
        _grouped_replay(reference, sites, list(rows), chunk)
        batched = BatchedFrequentDirectionsProtocol(
            num_sites=num_sites, dimension=dimension, epsilon=0.2)
        for start in range(0, rows.shape[0], chunk):
            batched.observe_batch(sites[start:start + chunk],
                                  batch[start:start + chunk])
        assert batched.items_processed == reference.items_processed
        assert batched.total_messages == reference.total_messages
        assert batched.estimated_squared_frobenius() == pytest.approx(
            reference.estimated_squared_frobenius())
        assert np.allclose(batched.sketch_matrix(), reference.sketch_matrix())
        assert batched.approximation_error() <= 0.2 + 1e-9

    @pytest.mark.parametrize("factory", [
        BatchedFrequentDirectionsProtocol,
        DeterministicDirectionProtocol,
        lambda **params: SingularDirectionUpdateProtocol(seed=5, **params),
    ], ids=["P1", "P2", "P4"])
    def test_zero_rows_leave_the_threshold_met(self, factory):
        """A leading zero row triggers at ``Ŵ = 0``, so the threshold stays
        met: each later row of the batch triggers again, as it does per row.
        P1 and P2 send the same log in the same order; P4's batch kernel
        decides all coins before it ships vectors, so only counts agree."""
        rows = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        params = dict(num_sites=1, dimension=3, epsilon=0.1,
                      keep_message_records=True)
        batched = factory(**params)
        batched.process_batch(0, rows)
        reference = factory(**params)
        for row in rows:
            reference.process(0, row)

        def log(protocol):
            return [(record.direction, record.kind, record.site, record.units)
                    for record in protocol.network.log]

        if isinstance(batched, SingularDirectionUpdateProtocol):
            assert sorted(log(batched), key=repr) \
                == sorted(log(reference), key=repr)
        else:
            assert log(batched) == log(reference)
        assert batched.message_counts() == reference.message_counts()
        assert batched.estimated_squared_frobenius() \
            == reference.estimated_squared_frobenius() == 1.0
        np.testing.assert_array_equal(batched.sketch_matrix(),
                                      reference.sketch_matrix())


class TestObserveBatchValidation:
    def test_rejects_mismatched_site_ids(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        batch = WeightedItemBatch.from_pairs([("a", 1.0), ("b", 2.0)])
        with pytest.raises(ValueError):
            protocol.observe_batch([0], batch)

    def test_rejects_out_of_range_sites(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        batch = WeightedItemBatch.from_pairs([("a", 1.0)])
        with pytest.raises(ValueError):
            protocol.observe_batch([5], batch)

    def test_accepts_plain_item_lists(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        protocol.observe_batch([0, 1, 0], [("a", 1.0), ("b", 2.0), ("a", 3.0)])
        assert protocol.estimate("a") == pytest.approx(4.0)
        assert protocol.items_processed == 3

    def test_empty_batch_is_noop(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        protocol.observe_batch([], [])
        assert protocol.items_processed == 0
