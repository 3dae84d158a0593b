"""Property-based equivalence & message-accounting harness for all protocols.

This suite upgrades the point assertions of ``test_batch_equivalence.py`` to
randomized, seed-parameterized properties, now that *every* protocol class
(P1–P4 in both domains, plus the centralized baselines) ships a native
``process_batch`` kernel:

* **Batch-vs-item equivalence** — for every (protocol, domain, chunk size ∈
  {1, 7, 4096}, seed) combination, the batched path must reproduce per-item
  ingestion of the same site-grouped order.  Deterministic protocols and the
  seeded randomized ones (whose per-site generators are consumed identically
  by the block draws) are *exactly* message-equivalent; HH P1 aggregates its
  Misra–Gries updates per segment, so its summary sizes — and with them its
  per-flush message units — are only guarantee-level equivalent.
* **Message accounting invariance** — protocols whose communication is
  item-counted (the forwarding baselines) must exchange exactly one unit per
  item no matter how the stream is chunked.  For the adaptive protocols the
  chunk size changes the cross-site interleaving (an equally valid order
  under the paper's adversarial model), so cross-chunk invariance is only
  asserted in the single-site case, where no reordering is possible.
* **RNG reproducibility** — same seed, same chunk size ⇒ bit-identical
  message logs and query answers for the randomized protocols; with one site
  the guarantee extends across chunk sizes.
* **Paper bounds** — the ε-approximation guarantees (heavy hitters within
  ``ε·W``, covariance within ``ε·‖A‖²_F``, Frequent Directions within
  ``‖A‖²_F/ℓ``, P2's one-sided undershoot) hold on every seed, through the
  batched path.
* **Emission schedule** — matrix P2's gate only decides *when* a site
  decomposes: its message log equals that of a site decomposing after every
  arrival, on random streams and on a stream whose ``σ₁²`` sits within a few
  ulps of the threshold, and a site's state stays ``d × d`` while the gate
  is shut.
* **Coordinator buffer** — matrix P2's ``B`` is one row buffer grown by
  doubling: a checkpoint at any fill writes exactly the live rows and
  resumes bit-identically, answers never alias the buffer, and every matrix
  protocol's ``sketch_rows`` count is the row count of its sketch.
* **HH P2 segment kernel** — grouping a site batch once and summing its
  trigger-free segments with ``np.bincount`` leaves the same message
  counts, estimate order and uncompressed checkpoint bytes as grouping each
  segment on its own with one ``cumsum`` per element, for int (int64
  extremes included), float, str, tuple and mixed object labels.
* **Empty batches** — every kernel treats a zero-length batch as a no-op.
* **Cross-family identity** — the paper's Section 5.3 reduction: matrix
  P3/P3wr *is* heavy-hitters P3/P3wr on item weight ``‖a‖²``, so the two
  families fed the same weights under the same seed take the same decisions.
  P1, P2 and P4 share their weight rounds the same way: the twins send the
  same scalars and broadcasts and hold the same weight estimate.

Seeds come from ``REPRO_PROPERTY_SEEDS`` (comma-separated ints; CI pins
three) so the properties can be re-rolled without editing the file.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

import repro
from repro.accel import SVD_MODES
from repro.api import SketchMatrix
from repro.api.state import tracker_frame
from repro.data.synthetic_matrix import make_pamap_like
from repro.data.zipfian import ZipfianStreamGenerator
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
from repro.matrix_tracking import p2_deterministic as p2_module
from repro.sketch import FrequentDirections
from repro.streaming.items import MatrixRowBatch, WeightedItemBatch
from repro.streaming.network import MessageKind
from repro.streaming.partition import RoundRobinPartitioner
from repro.streaming.protocol import first_crossing
from repro.streaming.runner import StreamingEngine
from repro.utils.linalg import covariance_error, spectral_norm
from repro.wire import decode_value, encode_value

SEEDS = tuple(
    int(seed)
    for seed in os.environ.get("REPRO_PROPERTY_SEEDS", "0,7,2014").split(",")
)
CHUNK_SIZES = (1, 7, 4096)
NUM_SITES = 5
HH_ITEMS = 800
MATRIX_ROWS = 400
EPSILON = 0.1

# Message-accounting strictness of each kernel versus the per-item path:
#   exact  - identical counters including the per-transmission count
#   units  - identical message units; transmissions coalesce (batch forwards)
#   bounded - guarantee-level only (HH P1's aggregated summaries change size)
HH_PROTOCOLS = {
    "P1": ("bounded", lambda m, seed: BatchedMisraGriesProtocol(
        num_sites=m, epsilon=EPSILON)),
    "P2": ("exact", lambda m, seed: ThresholdedUpdatesProtocol(
        num_sites=m, epsilon=EPSILON)),
    # site_space=64 straddles the merge-sweep fast path (no eviction
    # possible) and the exact per-item fallback within one run.
    "P2ss": ("exact", lambda m, seed: ThresholdedUpdatesProtocol(
        num_sites=m, epsilon=EPSILON, site_space=64)),
    "P3": ("exact", lambda m, seed: PrioritySamplingProtocol(
        num_sites=m, epsilon=EPSILON, sample_size=150, seed=seed + 101)),
    "P3wr": ("exact", lambda m, seed: WithReplacementSamplingProtocol(
        num_sites=m, epsilon=EPSILON, num_samplers=40, seed=seed + 101)),
    "P4": ("exact", lambda m, seed: RandomizedReportingProtocol(
        num_sites=m, epsilon=EPSILON, seed=seed + 101)),
    "exact": ("units", lambda m, seed: ExactForwardingProtocol(num_sites=m)),
}

MATRIX_PROTOCOLS = {
    "P1": ("exact", lambda m, d, seed: BatchedFrequentDirectionsProtocol(
        num_sites=m, dimension=d, epsilon=0.2)),
    "P2": ("exact", lambda m, d, seed: DeterministicDirectionProtocol(
        num_sites=m, dimension=d, epsilon=0.2)),
    "P3": ("exact", lambda m, d, seed: MatrixPrioritySamplingProtocol(
        num_sites=m, dimension=d, epsilon=0.2, sample_size=100, seed=seed + 101)),
    "P3wr": ("exact", lambda m, d, seed: WithReplacementMatrixSamplingProtocol(
        num_sites=m, dimension=d, epsilon=0.2, num_samplers=30, seed=seed + 101)),
    "P4": ("exact", lambda m, d, seed: SingularDirectionUpdateProtocol(
        num_sites=m, dimension=d, epsilon=0.2, seed=seed + 101)),
    "FD": ("units", lambda m, d, seed: CentralizedFDBaseline(
        num_sites=m, dimension=d, sketch_size=12)),
    "SVD": ("units", lambda m, d, seed: CentralizedSVDBaseline(
        num_sites=m, dimension=d)),
}

RANDOMIZED = ("P3", "P3wr", "P4")


def hh_stream(seed: int, num_sites: int = NUM_SITES):
    """A Zipfian weighted stream plus its round-robin site assignment."""
    generator = ZipfianStreamGenerator(universe_size=300, skew=2.0, beta=50.0,
                                       seed=seed)
    sample = generator.generate(HH_ITEMS)
    batch = WeightedItemBatch.from_pairs(sample.items)
    sites = RoundRobinPartitioner(num_sites).assign_batch(
        np.arange(len(batch)), batch)
    return sample, batch, sites


def matrix_stream(seed: int, num_sites: int = NUM_SITES):
    """A PAMAP-like row stream plus its round-robin site assignment."""
    dataset = make_pamap_like(num_rows=MATRIX_ROWS, seed=seed)
    rows = np.ascontiguousarray(dataset.rows, dtype=np.float64)
    batch = MatrixRowBatch(values=rows)
    sites = RoundRobinPartitioner(num_sites).assign_batch(
        np.arange(rows.shape[0]), batch)
    return dataset, batch, sites


def grouped_replay(protocol, sites, batch, chunk: int) -> None:
    """Replay a stream through ``observe`` in ``observe_batch``'s order.

    ``observe_batch`` stably groups each chunk by site, so the per-item
    reference consumes the same chunk in the same site-grouped order —
    the interleaving both paths must agree on.
    """
    sites = np.asarray(sites)
    for start in range(0, len(batch), chunk):
        segment_sites = sites[start:start + chunk]
        order = np.argsort(segment_sites, kind="stable")
        for position in order:
            index = start + int(position)
            protocol.observe(int(sites[index]), batch[index])


def feed_batched(protocol, sites, batch, chunk: int) -> None:
    for start in range(0, len(batch), chunk):
        protocol.observe_batch(sites[start:start + chunk],
                               batch[start:start + chunk])


def assert_message_equivalence(batched, reference, strictness: str) -> None:
    if strictness == "exact":
        assert batched.total_messages == reference.total_messages
        assert batched.message_counts() == reference.message_counts()
    elif strictness == "units":
        counts = batched.message_counts()
        expected = reference.message_counts()
        counts.pop("total_transmissions")
        expected.pop("total_transmissions")
        assert counts == expected
    else:  # bounded: flush timing matches, summary sizes may not
        assert batched.total_messages == pytest.approx(
            reference.total_messages, rel=0.05)


class TestHeavyHitterBatchItemEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("name", sorted(HH_PROTOCOLS))
    def test_batch_matches_grouped_item_order(self, name, chunk, seed):
        strictness, factory = HH_PROTOCOLS[name]
        _, batch, sites = hh_stream(seed)
        reference = factory(NUM_SITES, seed)
        grouped_replay(reference, sites, batch, chunk)
        batched = factory(NUM_SITES, seed)
        feed_batched(batched, sites, batch, chunk)

        assert batched.items_processed == reference.items_processed
        assert_message_equivalence(batched, reference, strictness)
        if strictness == "bounded":
            return
        assert batched.estimated_total_weight() == pytest.approx(
            reference.estimated_total_weight())
        reference_estimates = reference.estimates()
        batched_estimates = batched.estimates()
        assert set(batched_estimates) == set(reference_estimates)
        for element, estimate in reference_estimates.items():
            assert batched_estimates[element] == pytest.approx(estimate)
        assert (batched.heavy_hitter_elements(0.06)
                == reference.heavy_hitter_elements(0.06))


class TestMatrixBatchItemEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("name", sorted(MATRIX_PROTOCOLS))
    def test_batch_matches_grouped_item_order(self, name, chunk, seed):
        strictness, factory = MATRIX_PROTOCOLS[name]
        dataset, batch, sites = matrix_stream(seed)
        reference = factory(NUM_SITES, dataset.dimension, seed)
        grouped_replay(reference, sites, batch, chunk)
        batched = factory(NUM_SITES, dataset.dimension, seed)
        feed_batched(batched, sites, batch, chunk)

        assert batched.items_processed == reference.items_processed
        assert_message_equivalence(batched, reference, strictness)
        assert batched.estimated_squared_frobenius() == pytest.approx(
            reference.estimated_squared_frobenius())
        batched_sketch = batched.sketch_matrix()
        reference_sketch = reference.sketch_matrix()
        assert batched_sketch.shape == reference_sketch.shape
        assert np.allclose(batched_sketch, reference_sketch)
        assert np.allclose(batched.covariance(), reference.covariance())


class TestMessageAccountingInvariance:
    """Chunking must never change what communication is *counted*."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_forwarding_protocols_count_one_unit_per_item(self, seed):
        """Item-counted protocols: total units are chunk-size invariant."""
        sample, batch, sites = hh_stream(seed)
        totals = set()
        for chunk in CHUNK_SIZES:
            protocol = ExactForwardingProtocol(num_sites=NUM_SITES)
            feed_batched(protocol, sites, batch, chunk)
            assert protocol.network.log.upstream_messages == len(batch)
            totals.add(protocol.total_messages)
        per_item = ExactForwardingProtocol(num_sites=NUM_SITES)
        for (element, weight), site in zip(sample.items, sites):
            per_item.observe(int(site), (element, weight))
        totals.add(per_item.total_messages)
        assert totals == {len(batch)}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_forwarding_baselines_count_one_unit_per_row(self, seed):
        dataset, batch, sites = matrix_stream(seed)
        for factory in (
            lambda: CentralizedSVDBaseline(NUM_SITES, dataset.dimension),
            lambda: CentralizedFDBaseline(NUM_SITES, dataset.dimension,
                                          sketch_size=12),
        ):
            totals = set()
            for chunk in CHUNK_SIZES:
                protocol = factory()
                feed_batched(protocol, sites, batch, chunk)
                totals.add(protocol.total_messages)
            assert totals == {len(batch)}

    @pytest.mark.parametrize("domain", ["heavy_hitters", "matrix"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_site_counts_are_chunk_size_invariant(self, domain, seed):
        """With one site no chunking can reorder the stream, so every exact
        protocol must produce identical message counters for every chunk
        size (multi-site chunking changes the cross-site interleaving, which
        the adversarial-order model deliberately leaves free)."""
        if domain == "heavy_hitters":
            _, batch, _ = hh_stream(seed, num_sites=1)
            protocols = {name: spec for name, spec in HH_PROTOCOLS.items()
                         if spec[0] != "bounded"}
            build = lambda factory: factory(1, seed)
        else:
            dataset, batch, _ = matrix_stream(seed, num_sites=1)
            protocols = MATRIX_PROTOCOLS
            build = lambda factory: factory(1, dataset.dimension, seed)
        sites = np.zeros(len(batch), dtype=np.int64)
        for name, (strictness, factory) in sorted(protocols.items()):
            counters = []
            for chunk in CHUNK_SIZES:
                protocol = build(factory)
                feed_batched(protocol, sites, batch, chunk)
                counters.append(protocol.message_counts())
            if strictness == "units":
                for counts in counters:
                    counts.pop("total_transmissions")
            assert counters[0] == counters[1] == counters[2], name


class TestRngReproducibility:
    """Same seed ⇒ same randomness ⇒ identical behaviour."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", RANDOMIZED)
    def test_hh_same_seed_same_chunk_identical_logs(self, name, seed):
        _, batch, sites = hh_stream(seed)
        runs = []
        for _ in range(2):
            _, factory = HH_PROTOCOLS[name]
            protocol = factory(NUM_SITES, seed)
            protocol.network.log.keep_records = True
            feed_batched(protocol, sites, batch, 7)
            runs.append(protocol)
        first, second = runs
        assert first.network.log.records == second.network.log.records
        assert first.estimates() == second.estimates()
        assert first.estimated_total_weight() == second.estimated_total_weight()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", RANDOMIZED)
    def test_matrix_same_seed_same_chunk_identical_logs(self, name, seed):
        dataset, batch, sites = matrix_stream(seed)
        runs = []
        for _ in range(2):
            _, factory = MATRIX_PROTOCOLS[name]
            protocol = factory(NUM_SITES, dataset.dimension, seed)
            protocol.network.log.keep_records = True
            feed_batched(protocol, sites, batch, 7)
            runs.append(protocol)
        first, second = runs
        assert first.network.log.records == second.network.log.records
        assert np.array_equal(first.sketch_matrix(), second.sketch_matrix())
        assert (first.estimated_squared_frobenius()
                == second.estimated_squared_frobenius())

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", RANDOMIZED)
    def test_hh_single_site_chunk_size_free(self, name, seed):
        """One site: the same seed gives identical answers for every chunk
        size (and for the per-item engine path), because the per-site RNG
        stream is consumed in stream order regardless of chunking."""
        _, batch, _ = hh_stream(seed, num_sites=1)
        sites = np.zeros(len(batch), dtype=np.int64)
        _, factory = HH_PROTOCOLS[name]
        reference_counts = None
        reference_estimates = None
        for chunk in CHUNK_SIZES:
            protocol = factory(1, seed)
            feed_batched(protocol, sites, batch, chunk)
            counts = protocol.message_counts()
            estimates = protocol.estimates()
            if reference_counts is None:
                reference_counts = counts
                reference_estimates = estimates
                continue
            assert counts == reference_counts, chunk
            assert set(estimates) == set(reference_estimates), chunk
            # Batch boundaries change float summation order, nothing more.
            for element, estimate in reference_estimates.items():
                assert estimates[element] == pytest.approx(estimate, rel=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_engine_chunked_run_matches_observe_batch(self, seed):
        """The StreamingEngine's chunked dispatch is just observe_batch."""
        _, batch, sites = hh_stream(seed)
        _, factory = HH_PROTOCOLS["P3"]
        direct = factory(NUM_SITES, seed)
        feed_batched(direct, sites, batch, 7)
        engined = factory(NUM_SITES, seed)
        sited = WeightedItemBatch(elements=batch.elements,
                                  weights=batch.weights, sites=sites)
        StreamingEngine(chunk_size=7).run(engined, sited)
        assert engined.total_messages == direct.total_messages
        assert engined.estimates() == direct.estimates()


class TestCrossFamilyIdentity:
    """Section 5.3 as an executable statement: ``matrix/P3*`` on rows with
    ``‖a_i‖² = w_i`` is ``hh/P3*`` on items ``(i, w_i)`` — same messages,
    same threshold, same rounds, same total estimate, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk", [None, 64], ids=["item", "batch"])
    @pytest.mark.parametrize("name", ["P3", "P3wr"])
    def test_matrix_sampling_is_hh_sampling_on_squared_norms(self, name, chunk,
                                                             seed):
        _, batch, sites = hh_stream(seed)
        # Weights (k/4)² have exact square roots, so the rows √w·e_j below
        # have squared norm exactly w under both np.dot and einsum.
        roots = np.floor(np.sqrt(batch.weights) * 4.0) / 4.0
        items = WeightedItemBatch(elements=np.arange(len(batch)),
                                  weights=roots * roots)
        dimension = 6
        rows = np.zeros((len(batch), dimension))
        rows[np.arange(len(batch)), np.arange(len(batch)) % dimension] = roots
        size = {"P3": {"sample_size": 60}, "P3wr": {"num_samplers": 40}}[name]
        hh = repro.create(f"hh/{name}", num_sites=NUM_SITES, epsilon=EPSILON,
                          seed=seed + 101, **size)
        matrix = repro.create(f"matrix/{name}", num_sites=NUM_SITES,
                              dimension=dimension, epsilon=EPSILON,
                              seed=seed + 101, **size)

        step = chunk or 50
        for start in range(0, len(batch), step):
            stop = start + step
            if chunk is None:
                for index in range(start, min(stop, len(batch))):
                    hh.observe(int(sites[index]), items[index])
                    matrix.observe(int(sites[index]), rows[index])
            else:
                hh.observe_batch(sites[start:stop], items[start:stop])
                matrix.observe_batch(sites[start:stop], rows[start:stop])
            matrix_counts = matrix.message_counts()
            assert matrix_counts.pop("sketch_rows") \
                == len(hh.sample_with_adjusted_weights())
            assert matrix_counts == hh.message_counts()
            assert matrix.threshold == hh.threshold
            assert matrix.rounds_completed == hh.rounds_completed
            assert matrix.estimated_squared_frobenius() \
                == hh.estimated_total_weight()
        assert hh.rounds_completed > 0  # the stream outgrew the first round

    @staticmethod
    def _run_twins(spec, chunk, stream_seed, check, **params):
        """Feed ``hh/<spec>`` items ``(i, w_i)`` and ``matrix/<spec>`` rows
        ``√w_i·e_j`` side by side, calling ``check(hh, matrix)`` after every
        step.  The weights are the exact ``(k/4)²`` of the test above."""
        _, batch, sites = hh_stream(stream_seed)
        roots = np.floor(np.sqrt(batch.weights) * 4.0) / 4.0
        items = WeightedItemBatch(elements=np.arange(len(batch)),
                                  weights=roots * roots)
        dimension = 6
        rows = np.zeros((len(batch), dimension))
        rows[np.arange(len(batch)), np.arange(len(batch)) % dimension] = roots
        hh = repro.create(f"hh/{spec}", num_sites=NUM_SITES, epsilon=EPSILON,
                          **params)
        matrix = repro.create(f"matrix/{spec}", num_sites=NUM_SITES,
                              dimension=dimension, epsilon=EPSILON, **params)
        step = chunk or 50
        for start in range(0, len(batch), step):
            stop = start + step
            if chunk is None:
                for index in range(start, min(stop, len(batch))):
                    hh.observe(int(sites[index]), items[index])
                    matrix.observe(int(sites[index]), rows[index])
            else:
                hh.observe_batch(sites[start:stop], items[start:stop])
                matrix.observe_batch(sites[start:stop], rows[start:stop])
            check(hh, matrix)
        return hh, matrix

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk", [None, 64], ids=["item", "batch"])
    def test_matrix_p1_rounds_are_hh_p1_rounds(self, chunk, seed):
        """P1: a flush is an MG summary or an FD sketch plus its scalar."""
        def flushes(protocol, kind):
            return sum(record.kind is kind for record in protocol.network.log)

        def check(hh, matrix):
            assert flushes(matrix, MessageKind.SCALAR) \
                == flushes(hh, MessageKind.SUMMARY)
            assert matrix.message_counts()["kind_broadcast"] \
                == hh.message_counts()["kind_broadcast"]
            assert matrix.broadcast_weight == hh.broadcast_weight
            assert matrix.estimated_squared_frobenius() \
                == hh.estimated_total_weight()

        hh, _ = self._run_twins("P1", chunk, seed, check,
                                keep_message_records=True)
        assert hh.message_counts()["kind_broadcast"] > NUM_SITES

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk", [None, 64], ids=["item", "batch"])
    def test_matrix_p2_rounds_are_hh_p2_rounds(self, chunk, seed):
        """P2: only the vector messages (element updates against heavy
        directions) differ."""
        def check(hh, matrix):
            for kind in ("kind_scalar", "kind_broadcast"):
                assert matrix.message_counts().get(kind) \
                    == hh.message_counts().get(kind)
            assert matrix.rounds_completed == hh.rounds_completed
            assert matrix.estimated_norm == hh.estimated_total

        hh, _ = self._run_twins("P2", chunk, seed, check)
        assert hh.rounds_completed > 0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk", [None, 64], ids=["item", "batch"])
    def test_matrix_p4_rounds_are_hh_p4_rounds(self, chunk, seed):
        """P4: the same doubling reports and the same coins, so the same
        messages; every weight is at least 1, so the two first-report floors
        never differ."""
        def check(hh, matrix):
            matrix_counts = matrix.message_counts()
            matrix_counts.pop("sketch_rows")
            assert matrix_counts == hh.message_counts()
            assert matrix.broadcast_weight == hh.broadcast_weight

        hh, _ = self._run_twins("P4", chunk, seed, check, seed=seed + 101)
        assert hh.message_counts()["kind_broadcast"] > NUM_SITES


class TestPaperBounds:
    """The paper's guarantees, asserted through the batched path."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
    def test_heavy_hitter_estimates_within_epsilon(self, name, seed):
        sample, batch, sites = hh_stream(seed)
        if name == "P3":
            # The equivalence registry keeps P3's sample small for speed; the
            # accuracy theorem needs the paper's s = Θ((1/ε²)·log(1/ε)).
            protocol = PrioritySamplingProtocol(
                num_sites=NUM_SITES, epsilon=EPSILON, sample_size=400,
                seed=seed + 101)
        else:
            _, factory = HH_PROTOCOLS[name]
            protocol = factory(NUM_SITES, seed)
        feed_batched(protocol, sites, batch, 4096)
        budget = EPSILON * sample.total_weight + 1e-9
        for element, weight in sample.element_weights.items():
            assert abs(protocol.estimate(element) - weight) <= budget, element

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", ["P1", "P3"])
    def test_matrix_covariance_within_epsilon(self, name, seed):
        dataset, batch, sites = matrix_stream(seed)
        _, factory = MATRIX_PROTOCOLS[name]
        protocol = factory(NUM_SITES, dataset.dimension, seed)
        feed_batched(protocol, sites, batch, 4096)
        assert covariance_error(dataset.rows, protocol.sketch_matrix()) <= 0.2 + 1e-9

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matrix_p2_error_is_one_sided(self, seed):
        """P2 only ever *undershoots*: 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε·‖A‖²_F."""
        dataset, batch, sites = matrix_stream(seed)
        _, factory = MATRIX_PROTOCOLS["P2"]
        protocol = factory(NUM_SITES, dataset.dimension, seed)
        feed_batched(protocol, sites, batch, 4096)
        rows = dataset.rows
        difference = rows.T @ rows - protocol.covariance()
        norm = float(np.einsum("ij,ij->", rows, rows))
        assert spectral_norm(difference) <= 0.2 * norm + 1e-6
        eigenvalues = np.linalg.eigvalsh(difference)
        assert eigenvalues.min() >= -1e-6 * max(norm, 1.0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_frequent_directions_covariance_bound(self, seed):
        """FD's deterministic bound: ‖AᵀA − BᵀB‖₂ ≤ ‖A‖²_F / ℓ."""
        dataset, _, _ = matrix_stream(seed)
        rows = dataset.rows
        sketch_size = 16
        sketch = FrequentDirections(dimension=dataset.dimension,
                                    sketch_size=sketch_size)
        sketch.append_batch(rows)
        difference = rows.T @ rows - sketch.covariance()
        frobenius = float(np.einsum("ij,ij->", rows, rows))
        assert spectral_norm(difference) <= frobenius / sketch_size + 1e-6


class DecomposeEveryArrival(DeterministicDirectionProtocol):
    """Matrix P2 without a schedule: the site residual is decomposed after
    every arrival, and the decomposition alone decides what is sent.  The
    Gram, its fold points and the decomposition are the protocol's own, so
    a comparison against the gated protocol isolates the gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for state in self._sites:
            state.top_bound = math.inf

    def _gate(self, site):
        state = self._sites[site]
        self._emit_heavy_directions(site, state.residual())
        state.top_bound = math.inf


def count_decompositions(monkeypatch, threshold_of=None):
    """Count P2's decompositions; with ``threshold_of`` also collect each
    call's ``(σ₁², threshold)`` pair."""
    calls = []
    real = p2_module.spectral_decomposition

    def counting(matrix, *args, **kwargs):
        values, vt = real(matrix, *args, **kwargs)
        calls.append((float(values[0]), threshold_of() if threshold_of else None))
        return values, vt

    monkeypatch.setattr(p2_module, "spectral_decomposition", counting)
    return calls


def message_log(protocol):
    return protocol.network.log.records


def tie_stream(seed, num_sites, epsilon, dimension=4, rows=240):
    """Rows along one direction, round-robin over the sites, each sized so
    that the site's σ₁² after the arrival sits within a few ulps of the
    threshold the arrival meets (after its own scalar report, if any).

    The stream is built against a :class:`DecomposeEveryArrival` replay, so
    the sizes follow the protocol's actual state, emissions included.
    """
    rng = np.random.default_rng(seed)
    unit = np.arange(1.0, dimension + 1.0)
    unit /= np.linalg.norm(unit)
    rate = epsilon / num_sites
    sites = np.arange(rows) % num_sites
    replay = DecomposeEveryArrival(num_sites, dimension, epsilon)
    out = np.empty((rows, dimension))
    for index, site in enumerate(sites):
        state = replay._sites[site]
        top = float(np.linalg.eigvalsh(state.residual())[-1])
        carry = state.norm_since_scalar
        threshold = rate * replay.estimated_norm
        norm = threshold - top                       # no scalar report
        if not (norm > 0.0 and carry + norm < threshold):
            # The arrival reports F_j first, which moves the threshold.
            norm = (rate * (replay.estimated_norm + carry) - top) / (1.0 - rate)
            if not (norm > 0.0 and carry + norm >= threshold):
                norm = float(rng.uniform(0.5, 2.0))
        norm *= 1.0 + int(rng.integers(-3, 4)) * np.finfo(float).eps
        out[index] = np.sqrt(norm) * unit
        replay.observe(int(site), out[index])
    return out, sites


class TestP2EmissionSchedule:
    """Matrix P2's gate is a schedule: gated P2 (cheap trigger, certified
    bound, decomposition only when a direction can emit) sends exactly what
    a site that decomposes after every arrival sends."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("svd_mode", SVD_MODES)
    def test_gated_log_equals_decomposing_every_arrival(self, svd_mode, chunk,
                                                        seed, monkeypatch):
        dataset, batch, sites = matrix_stream(seed)
        build = lambda cls: cls(NUM_SITES, dataset.dimension, 0.2,  # noqa: E731
                                svd_mode=svd_mode, keep_message_records=True)
        calls = count_decompositions(monkeypatch)
        reference = build(DecomposeEveryArrival)
        grouped_replay(reference, sites, batch, chunk)
        reference_calls = len(calls)
        per_item = build(DeterministicDirectionProtocol)
        grouped_replay(per_item, sites, batch, chunk)
        batched = build(DeterministicDirectionProtocol)
        feed_batched(batched, sites, batch, chunk)
        gated_calls = (len(calls) - reference_calls) / 2

        assert message_log(per_item) == message_log(reference)
        assert message_log(batched) == message_log(reference)
        assert any(record.kind.name == "VECTOR"
                   for record in message_log(reference))
        # Identical Grams in, identical directions out — bit for bit.
        for gated in (per_item, batched):
            assert np.array_equal(gated.sketch_matrix(),
                                  reference.sketch_matrix())
        assert gated_calls < reference_calls / 3

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_sites, epsilon", [(1, 0.5), (2, 0.5), (3, 0.2)])
    def test_near_tie_stream(self, num_sites, epsilon, seed, monkeypatch):
        """σ₁² within a few ulps of (ε/m)·F̂ at almost every arrival: the
        rounding margin must open the gate whenever the decomposition would
        emit (without it, every one of these logs differs).

        Per item only: the batch kernel sums ``F_j`` per block, so at a tie
        this close its ``F̂`` — and with it the threshold — may round one
        ulp away from the per-item one, whatever the gate does."""
        rows, sites = tie_stream(seed, num_sites, epsilon)
        build = lambda cls: cls(num_sites, rows.shape[1], epsilon,  # noqa: E731
                                keep_message_records=True)
        reference = build(DecomposeEveryArrival)
        ties = count_decompositions(monkeypatch, reference._threshold)
        for site, row in zip(sites, rows):
            reference.observe(int(site), row)
        monkeypatch.undo()
        gated = build(DeterministicDirectionProtocol)
        for site, row in zip(sites, rows):
            gated.observe(int(site), row)

        ulps = 8 * rows.shape[1] * np.finfo(float).eps
        near = [(top, level) for top, level in ties
                if level > 0 and abs(top / level - 1.0) <= ulps]
        assert len(near) >= len(rows) // 2
        assert any(top >= level for top, level in near)
        assert any(top < level for top, level in near)
        assert message_log(gated) == message_log(reference)

    def test_site_state_stays_d_by_d_with_the_gate_shut(self, monkeypatch):
        dimension = 6
        protocol = DeterministicDirectionProtocol(1, dimension, 0.5)
        rng = np.random.default_rng(3)
        protocol.observe(0, np.full(dimension, 100.0))   # F̂ = 60 000
        calls = count_decompositions(monkeypatch)
        rows = rng.uniform(-0.1, 0.1, size=(10_000, dimension))
        protocol.observe_batch(np.zeros(16, dtype=np.int64), rows[:16])
        early = len(encode_value(protocol.state_dict()))
        for start in range(16, len(rows), 997):
            protocol.observe_batch(np.zeros(len(rows[start:start + 997]),
                                            dtype=np.int64),
                                   rows[start:start + 997])
        state = protocol._sites[0]
        assert calls == []                               # the gate stayed shut
        assert state.gram.shape == (dimension, dimension)
        assert state.filled < state.pending.shape[0]
        assert len(encode_value(protocol.state_dict())) == early  # O(d²)
        assert np.allclose(state.residual(), rows.T @ rows, atol=1e-9)


class TestP2CoordinatorBuffer:
    """Matrix P2's coordinator keeps ``B`` as one row buffer and a count."""

    @pytest.mark.parametrize("seed", SEEDS)
    # Empty, one row, a full first buffer, the first doubled one, and a
    # buffer that has doubled three times (16 → 128 rows).
    @pytest.mark.parametrize("count", [0, 1, 16, 17, 100])
    def test_checkpoint_at_any_fill_resumes_bit_identically(self, count, seed):
        dataset = make_pamap_like(num_rows=1200, seed=seed)
        rows, dimension = dataset.rows, dataset.dimension
        sites = np.arange(len(rows)) % NUM_SITES
        running = DeterministicDirectionProtocol(NUM_SITES, dimension, 0.1,
                                                 keep_message_records=True)
        split = 0
        while running.message_counts()["sketch_rows"] < count:
            running.observe(int(sites[split]), rows[split])
            split += 1
        assert running.message_counts()["sketch_rows"] == count

        frame = encode_value(running.state_dict())
        state = decode_value(frame)
        assert state["coordinator_rows"].shape == (count, dimension)
        twins = [DeterministicDirectionProtocol(NUM_SITES, dimension, 0.1,
                                                keep_message_records=True)
                 for _ in range(2)]
        twins[0].load_state_dict(state)
        twins[1].load_state_dict(decode_value(frame))
        for start in range(split, len(rows), 97):
            block = MatrixRowBatch(values=rows[start:start + 97])
            for protocol in [running] + twins:
                protocol.observe_batch(sites[start:start + 97], block)
            sketch = running.sketch_matrix()
            covariance = running.covariance()
            assert np.array_equal(covariance, sketch.T @ sketch)
            for twin in twins:
                assert np.array_equal(twin.sketch_matrix(), sketch)
                assert np.array_equal(twin.covariance(), covariance)
        for twin in twins:
            assert message_log(twin) == message_log(running)
        assert running.message_counts()["sketch_rows"] > 128

    def test_answers_do_not_alias_the_buffer(self):
        dataset, batch, sites = matrix_stream(SEEDS[0])
        protocol = DeterministicDirectionProtocol(NUM_SITES, dataset.dimension,
                                                  0.2)
        feed_batched(protocol, sites, batch, 97)
        kept = protocol.sketch_matrix()
        protocol.sketch_matrix()[:] = np.nan
        assert np.array_equal(protocol.sketch_matrix(), kept)

        with repro.ShardedTracker.create(
                "matrix/P2", shards=1, backend="serial", num_sites=NUM_SITES,
                dimension=dataset.dimension, epsilon=0.2,
                cache_size=0) as cluster:
            cluster.push_batch(dataset.rows)
            answer = cluster.query(SketchMatrix())
            kept = answer.estimate.copy()
            answer.estimate[:] = np.nan
            assert np.array_equal(cluster.query(SketchMatrix()).estimate, kept)

    @pytest.mark.parametrize("name", sorted(MATRIX_PROTOCOLS))
    def test_sketch_rows_counts_the_sketch(self, name):
        dataset, batch, sites = matrix_stream(SEEDS[0])
        protocol = MATRIX_PROTOCOLS[name][1](NUM_SITES, dataset.dimension,
                                             SEEDS[0])
        for start in range(0, len(batch), 97):
            protocol.observe_batch(sites[start:start + 97],
                                   batch[start:start + 97])
            assert (protocol.message_counts()["sketch_rows"]
                    == protocol.sketch_matrix().shape[0])


class TestEmptyBatches:
    """A zero-length batch must be a universal no-op for every kernel."""

    @pytest.mark.parametrize("name", sorted(HH_PROTOCOLS))
    def test_heavy_hitter_kernels(self, name):
        _, factory = HH_PROTOCOLS[name]
        protocol = factory(NUM_SITES, 0)
        protocol.process_batch(0, np.empty(0, dtype=object), None)
        protocol.process_batch(1, [], np.empty(0))
        protocol.observe_batch([], WeightedItemBatch.from_pairs([]))
        assert protocol.items_processed == 0
        assert protocol.total_messages == 0
        assert protocol.estimates() == {}

    @pytest.mark.parametrize("name", sorted(MATRIX_PROTOCOLS))
    def test_matrix_kernels(self, name):
        _, factory = MATRIX_PROTOCOLS[name]
        protocol = factory(NUM_SITES, 6, 0)
        protocol.process_batch(0, np.empty((0, 6)))
        protocol.observe_batch([], MatrixRowBatch(values=np.empty((0, 6))))
        assert protocol.items_processed == 0
        assert protocol.total_messages == 0
        assert protocol.sketch_matrix().shape[0] == 0


# --------------------------------------------------------------------------
# hh/P2's segment kernel against a segment-by-segment grouping.

def segment_groups(elements):
    """``(element, positions)`` per distinct label of one segment.

    The reference grouping of one trigger-free segment on its own:
    ``np.unique`` order for orderable arrays of two or more labels, else a
    dictionary sweep in first-appearance order.
    """
    if elements.dtype.kind != "O" and elements.shape[0] >= 2:
        uniques, inverse = np.unique(elements, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        boundaries = np.concatenate(([0], np.cumsum(np.bincount(inverse))))
        return [(uniques[k], order[boundaries[k]:boundaries[k + 1]])
                for k in range(uniques.shape[0])]
    grouped = {}
    for position, element in enumerate(elements):
        grouped.setdefault(element, []).append(position)
    return [(element, np.asarray(positions, dtype=np.int64))
            for element, positions in grouped.items()]


def segment_loop_updates(protocol, site, state, elements, weights, threshold):
    """Per-element delta tracking with one grouping and one cumsum per element."""
    sends = 0
    for element, positions in segment_groups(elements):
        group_cumulative = np.cumsum(weights[positions])
        length = group_cumulative.shape[0]
        initial = state.deltas.get(element, 0.0)
        final = initial + float(group_cumulative[-1])
        if final < threshold:
            state.deltas[element] = final
            continue
        carry = initial
        offset = 0.0
        last_sent = -1
        while True:
            crossing = last_sent + 1 + int(np.searchsorted(
                group_cumulative[last_sent + 1:], threshold + offset - carry,
                side="left"))
            if crossing >= length:
                break
            sends += 1
            last_sent = crossing
            offset = float(group_cumulative[crossing])
            carry = 0.0
        delivered = initial + float(group_cumulative[last_sent])
        protocol._element_estimates[element] = (
            protocol._element_estimates.get(element, 0.0) + delivered)
        leftover = float(group_cumulative[-1]) - float(group_cumulative[last_sent])
        if leftover > 0.0:
            state.deltas[element] = leftover
        else:
            state.deltas.pop(element, None)
    if sends:
        protocol.network.send_batch(site, sends, kind=MessageKind.VECTOR,
                                    description="element updates")


def segment_loop_batch_deltas(protocol, site, state, elements, weights):
    """hh/P2's trigger-splitting kernel, grouping each segment on its own."""
    total = weights.shape[0]
    cumulative = np.cumsum(weights)
    consumed = 0.0
    start = 0
    while start < total:
        threshold = protocol._threshold()
        trigger = first_crossing(cumulative, threshold,
                                 carry=state.weight_since_total - consumed,
                                 start=start)
        stop = min(trigger, total)
        if stop > start:
            segment_loop_updates(protocol, site, state, elements[start:stop],
                                 weights[start:stop], threshold)
        if trigger >= total:
            state.weight_since_total += float(cumulative[-1]) - consumed
            return
        element = elements[trigger]
        new_delta = state.deltas.get(element, 0.0) + float(weights[trigger])
        state.deltas[element] = new_delta
        total_weight = (state.weight_since_total
                        + float(cumulative[trigger]) - consumed)
        protocol._send_total(site, total_weight)
        state.weight_since_total = 0.0
        consumed = float(cumulative[trigger])
        if new_delta >= protocol._threshold():
            protocol._send_element(site, element, new_delta)
            state.reset_element(element)
        start = trigger + 1


LABEL_POOLS = {
    "int": [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -7, -1, 0, 3, 12,
            2 ** 40],
    "float": [-2.5, -1e-300, 0.125, 1.0, 3.75, 1e300],
    "str": ["", "a", "b", "hh", "zz", "élan"],
    "tuple": [(), (0,), (1, 2), (1, "x"), ("x", 1), ((1,), 2)],
    # 1, 1.0 and True are one key: which object a dict keeps is observable.
    "mixed": [1, 1.0, True, "1", (1,), None, 2.5, (2, "b")],
}
# (epsilon, per-item weight growth): "growing" keeps the per-site threshold
# near one item's weight, so many trigger-free segments hold a single item.
STREAM_SHAPES = {"flat": (0.1, 1.0), "growing": (0.1, 1.02)}
P2_SPECS = ("hh/P2", "hh/P2ss")


def labelled_stream(labels: str, shape: str, seed: int, items: int = 700):
    """Zipf-like draws from one label pool with uniform or growing weights."""
    rng = np.random.default_rng(seed)
    pool = LABEL_POOLS[labels]
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    draws = rng.choice(len(pool), size=items, p=ranks ** -1.5 / np.sum(ranks ** -1.5))
    growth = STREAM_SHAPES[shape][1]
    weights = rng.uniform(0.5, 3.0, size=items) * growth ** np.arange(items)
    return WeightedItemBatch.from_pairs(
        [(pool[draw], weight) for draw, weight in zip(draws, weights.tolist())])


class TestP2SegmentKernel:
    """hh/P2's segment kernel groups each site batch once and sums segments
    with ``np.bincount``; everything it leaves behind — message counts, the
    estimates' order and the uncompressed checkpoint bytes — must equal a
    kernel that groups every segment on its own and takes one ``cumsum``
    per element."""

    @staticmethod
    def run(spec, batch, chunk, epsilon):
        tracker = repro.Tracker.create(spec, num_sites=3, epsilon=epsilon,
                                       chunk_size=chunk)
        tracker.run(batch)
        return tracker

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
    @pytest.mark.parametrize("chunk", (1, 2, 7, 4096))
    @pytest.mark.parametrize("labels", sorted(LABEL_POOLS))
    @pytest.mark.parametrize("spec", P2_SPECS)
    def test_state_matches_segment_by_segment_grouping(self, spec, labels, chunk,
                                                       shape, seed, monkeypatch):
        batch = labelled_stream(labels, shape, seed)
        epsilon = STREAM_SHAPES[shape][0]
        monkeypatch.setattr(ThresholdedUpdatesProtocol, "_process_batch_deltas",
                            segment_loop_batch_deltas)
        reference = self.run(spec, batch, chunk, epsilon)
        monkeypatch.undo()
        tracker = self.run(spec, batch, chunk, epsilon)
        assert tracker.protocol.message_counts() == reference.protocol.message_counts()
        estimates = tracker.protocol.estimates()
        expected = reference.protocol.estimates()
        assert list(estimates) == list(expected)
        assert [type(element) for element in estimates] \
            == [type(element) for element in expected]
        assert tracker_frame(tracker) == tracker_frame(reference)

    def test_growing_weights_make_one_item_segments(self, monkeypatch):
        lengths = []
        kernel = ThresholdedUpdatesProtocol._apply_element_updates

        def recording(protocol, site, state, keys, elements, *rest):
            lengths.append(elements.shape[0])
            return kernel(protocol, site, state, keys, elements, *rest)

        monkeypatch.setattr(ThresholdedUpdatesProtocol, "_apply_element_updates",
                            recording)
        self.run("hh/P2", labelled_stream("int", "growing", SEEDS[0]), 4096,
                 STREAM_SHAPES["growing"][0])
        assert lengths.count(1) >= 10
