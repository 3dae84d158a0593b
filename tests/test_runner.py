"""Unit tests for the streaming engine and the DistributedProtocol base class."""

from __future__ import annotations

import numpy as np
import pytest

from repro.heavy_hitters.exact import ExactForwardingProtocol
from repro.matrix_tracking.baselines import CentralizedSVDBaseline
from repro.streaming.items import MatrixRow, MatrixRowBatch, WeightedItem, WeightedItemBatch
from repro.streaming.partition import RoundRobinPartitioner
from repro.streaming.runner import StreamingEngine

PER_ITEM = StreamingEngine(chunk_size=None)


class TestRunProtocolWithWeightedItems:
    def test_feeds_all_items(self, zipf_sample):
        protocol = ExactForwardingProtocol(num_sites=5)
        result = PER_ITEM.run(protocol, [WeightedItem(element=e, weight=w)
                                         for e, w in zipf_sample.items[:500]])
        assert result.items_processed == 500
        assert result.total_messages >= 500
        assert protocol.estimated_total_weight() == pytest.approx(
            sum(w for _, w in zipf_sample.items[:500])
        )

    def test_tuples_accepted(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        PER_ITEM.run(protocol, [("a", 1.0), ("b", 2.0), ("a", 3.0)])
        assert protocol.estimate("a") == pytest.approx(4.0)

    def test_items_with_site_attribute_routed_directly(self):
        protocol = ExactForwardingProtocol(num_sites=3, keep_message_records=True)
        items = [WeightedItem(element="x", weight=1.0, site=2) for _ in range(4)]
        PER_ITEM.run(protocol, items)
        sites = {record.site for record in protocol.network.log.records
                 if record.site is not None}
        assert sites == {2}

    def test_query_schedule(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        result = PER_ITEM.run(
            protocol,
            [("a", 1.0)] * 10,
            query_at=[3, 7],
            query=lambda p: p.estimate("a"),
        )
        counts = [obs.items_processed for obs in result.observations]
        assert counts == [3, 7, 10]
        assert result.observations[0].result == pytest.approx(3.0)
        assert result.final_observation.result == pytest.approx(10.0)

    def test_no_final_query_when_disabled(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        result = PER_ITEM.run(
            protocol, [("a", 1.0)] * 5, query_at=[2],
            query=lambda p: p.estimate("a"), query_at_end=False,
        )
        assert [obs.items_processed for obs in result.observations] == [2]

    def test_partitioner_mismatch_rejected(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        with pytest.raises(ValueError):
            PER_ITEM.run(protocol, [("a", 1.0)],
                         partitioner=RoundRobinPartitioner(num_sites=3))

    def test_final_observation_none_without_query(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        result = PER_ITEM.run(protocol, [("a", 1.0)])
        assert result.final_observation is None
        assert result.observations == []


class TestRunProtocolWithRows:
    def test_matrix_rows_accepted(self, rng):
        rows = rng.standard_normal((50, 4))
        protocol = CentralizedSVDBaseline(num_sites=4, dimension=4)
        result = PER_ITEM.run(protocol, (MatrixRow(values=row) for row in rows))
        assert result.items_processed == 50
        # The exact baseline receives every row: its F̂ is the stream's ‖A‖²_F.
        assert protocol.estimated_squared_frobenius() == pytest.approx(
            float(np.sum(rows ** 2)))

    def test_message_counts_in_result(self, rng):
        rows = rng.standard_normal((20, 3))
        protocol = CentralizedSVDBaseline(num_sites=2, dimension=3)
        result = PER_ITEM.run(protocol, (MatrixRow(values=row) for row in rows))
        assert result.message_counts["total_messages"] == result.total_messages
        assert result.total_messages == 20


class TestRunMany:
    def test_identical_streams_per_protocol(self):
        protocols = {
            "first": ExactForwardingProtocol(num_sites=2),
            "second": ExactForwardingProtocol(num_sites=2),
        }

        def stream_factory():
            return [("a", 1.0), ("b", 2.0), ("a", 1.5)]

        results = {name: PER_ITEM.run(protocol, stream_factory())
                   for name, protocol in protocols.items()}
        assert set(results) == {"first", "second"}
        assert (results["first"].protocol.estimate("a")
                == results["second"].protocol.estimate("a"))


class TestProtocolBase:
    def test_repr_and_counters(self):
        protocol = ExactForwardingProtocol(num_sites=3)
        protocol.process(0, "a", 1.0)
        text = repr(protocol)
        assert "num_sites=3" in text
        assert protocol.items_processed == 1

    def test_message_counts_dict(self):
        protocol = ExactForwardingProtocol(num_sites=3)
        protocol.process(1, "a", 2.0)
        counts = protocol.message_counts()
        assert counts["total_messages"] == protocol.total_messages


class TestStreamingEngineBatched:
    def test_columnar_batch_matches_per_item_results(self, zipf_sample):
        items = zipf_sample.items[:800]
        per_item = ExactForwardingProtocol(num_sites=4)
        PER_ITEM.run(per_item, items)
        batched = ExactForwardingProtocol(num_sites=4)
        StreamingEngine(chunk_size=128).run(
            batched, WeightedItemBatch.from_pairs(items))
        assert batched.items_processed == per_item.items_processed
        assert batched.total_messages == per_item.total_messages
        for element in set(element for element, _ in items):
            assert batched.estimate(element) == pytest.approx(
                per_item.estimate(element))

    def test_query_schedule_respected_across_chunk_boundaries(self):
        # Chunks must split at scheduled counts: every query sees the
        # protocol after exactly the scheduled number of items.
        protocol = ExactForwardingProtocol(num_sites=2)
        batch = WeightedItemBatch.from_pairs([("a", 1.0)] * 100)
        result = StreamingEngine(chunk_size=32).run(
            protocol, batch, query_at=[5, 31, 32, 33, 90],
            query=lambda p: p.estimate("a"))
        counts = [obs.items_processed for obs in result.observations]
        assert counts == [5, 31, 32, 33, 90, 100]
        for observation in result.observations:
            assert observation.result == pytest.approx(
                float(observation.items_processed))

    def test_generator_stream_is_chunked(self):
        protocol = ExactForwardingProtocol(num_sites=3)
        stream = (("x", 1.0) for _ in range(257))
        result = StreamingEngine(chunk_size=64).run(protocol, stream)
        assert result.items_processed == 257
        assert protocol.estimate("x") == pytest.approx(257.0)

    def test_items_with_site_attribute_routed_directly_in_batched_mode(self):
        protocol = ExactForwardingProtocol(num_sites=3, keep_message_records=True)
        items = [WeightedItem(element="x", weight=1.0, site=2) for _ in range(10)]
        StreamingEngine(chunk_size=4).run(protocol, items)
        sites = {record.site for record in protocol.network.log.records
                 if record.site is not None}
        assert sites == {2}

    def test_columnar_batch_sites_override_partitioner(self):
        protocol = ExactForwardingProtocol(num_sites=3, keep_message_records=True)
        batch = WeightedItemBatch.from_pairs([("x", 1.0)] * 6,
                                             sites=[1, 1, 1, 1, 1, 1])
        StreamingEngine(chunk_size=2).run(protocol, batch)
        sites = {record.site for record in protocol.network.log.records
                 if record.site is not None}
        assert sites == {1}

    def test_matrix_row_batch_stream(self, rng):
        rows = rng.standard_normal((90, 5))
        protocol = CentralizedSVDBaseline(num_sites=3, dimension=5)
        result = StreamingEngine(chunk_size=32).run(
            protocol, MatrixRowBatch(values=rows))
        assert result.items_processed == 90
        assert protocol.estimated_squared_frobenius() == pytest.approx(
            float(np.sum(rows ** 2)))

    def test_raw_2d_array_stream(self, rng):
        rows = rng.standard_normal((50, 4))
        protocol = CentralizedSVDBaseline(num_sites=2, dimension=4)
        result = StreamingEngine(chunk_size=16).run(protocol, rows)
        assert result.items_processed == 50
        assert result.total_messages == 50

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            StreamingEngine(chunk_size=0)
        with pytest.raises(ValueError):
            StreamingEngine(chunk_size=-5)


class TestChunkBoundaryEdgeCases:
    """Degenerate chunkings must behave exactly like their references."""

    def test_chunk_size_one_matches_per_item_dispatch(self, zipf_sample):
        # chunk_size=1 performs no site grouping at all, so even the
        # adaptive protocols see pure arrival order: message counts and
        # estimates must match the per-item engine exactly.
        from repro.heavy_hitters.p2_threshold import ThresholdedUpdatesProtocol

        items = zipf_sample.items[:400]
        per_item = ThresholdedUpdatesProtocol(num_sites=3, epsilon=0.1)
        PER_ITEM.run(per_item, items)
        chunked = ThresholdedUpdatesProtocol(num_sites=3, epsilon=0.1)
        StreamingEngine(chunk_size=1).run(
            chunked, WeightedItemBatch.from_pairs(items))
        assert chunked.items_processed == per_item.items_processed
        assert chunked.total_messages == per_item.total_messages
        assert chunked.estimated_total_weight() == pytest.approx(
            per_item.estimated_total_weight())
        for element, estimate in per_item.estimates().items():
            assert chunked.estimate(element) == pytest.approx(estimate)

    def test_chunk_larger_than_stream_is_one_batch(self, zipf_sample):
        items = zipf_sample.items[:50]
        protocol = ExactForwardingProtocol(num_sites=2)
        result = StreamingEngine(chunk_size=4096).run(
            protocol, WeightedItemBatch.from_pairs(items))
        assert result.items_processed == 50
        assert protocol.total_messages == 50
        # The whole stream fits in one chunk: one transmission per site.
        assert protocol.network.log.total_transmissions == 2

    def test_query_exactly_on_chunk_boundary(self):
        # A query scheduled precisely where a chunk already ends must fire
        # once, at exactly that count, and not resplit anything.
        protocol = ExactForwardingProtocol(num_sites=2)
        batch = WeightedItemBatch.from_pairs([("a", 1.0)] * 21)
        result = StreamingEngine(chunk_size=7).run(
            protocol, batch, query_at=[7, 14, 21],
            query=lambda p: p.estimate("a"))
        counts = [obs.items_processed for obs in result.observations]
        assert counts == [7, 14, 21]  # no duplicate end-of-stream query
        for observation in result.observations:
            assert observation.result == pytest.approx(
                float(observation.items_processed))

    def test_query_on_final_item_not_duplicated_for_generators(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        stream = (("a", 1.0) for _ in range(14))
        result = StreamingEngine(chunk_size=7).run(
            protocol, stream, query_at=[14], query=lambda p: p.estimate("a"))
        assert [obs.items_processed for obs in result.observations] == [14]

    def test_empty_stream_is_noop(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        result = StreamingEngine(chunk_size=7).run(
            protocol, WeightedItemBatch.from_pairs([]))
        assert result.items_processed == 0
        assert protocol.total_messages == 0


class TestRunBookkeeping:
    """The engine's run-local count is the single source of truth (issue fix)."""

    def test_pre_fed_protocol_gets_no_duplicate_final_query(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        # Protocol has seen items before the run: its lifetime counter is
        # ahead of the run's counter.
        protocol.process(0, "warmup", 1.0)
        protocol.process(1, "warmup", 1.0)
        result = PER_ITEM.run(protocol, [("a", 1.0)] * 10, query_at=[10],
                              query=lambda p: p.estimate("a"))
        # One query at item 10 of *this run*; no spurious extra observation
        # at the lifetime count of 12.
        counts = [obs.items_processed for obs in result.observations]
        assert counts == [10]
        assert result.items_processed == 10
        assert protocol.items_processed == 12

    def test_pre_fed_protocol_gets_exactly_one_end_query(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        protocol.process(0, "warmup", 1.0)
        result = PER_ITEM.run(protocol, [("a", 1.0)] * 5,
                              query=lambda p: p.estimate("a"))
        counts = [obs.items_processed for obs in result.observations]
        assert counts == [5]

    def test_batched_and_per_item_agree_on_counts(self, zipf_sample):
        items = zipf_sample.items[:300]
        for chunk_size in (None, 64):
            protocol = ExactForwardingProtocol(num_sites=3)
            protocol.process(0, "warmup", 1.0)
            result = StreamingEngine(chunk_size=chunk_size).run(
                protocol, items, query_at=[100, 250],
                query=lambda p: p.items_processed)
            assert [obs.items_processed for obs in result.observations] == \
                [100, 250, 300]
            assert result.items_processed == 300
