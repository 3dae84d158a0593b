"""Unit tests for the simulated network / message accounting."""

from __future__ import annotations

import pytest

from repro.streaming.network import (
    CommunicationLog,
    Direction,
    MessageKind,
    Network,
)


class TestCommunicationLog:
    def test_counts_by_kind_and_direction(self):
        log = CommunicationLog()
        log.record(Direction.SITE_TO_COORDINATOR, MessageKind.VECTOR, 3)
        log.record(Direction.SITE_TO_COORDINATOR, MessageKind.SCALAR, 1)
        log.record(Direction.COORDINATOR_TO_SITE, MessageKind.BROADCAST, 10)
        assert log.total_messages == 14
        assert log.upstream_messages == 4
        assert log.downstream_messages == 10
        assert log.messages_of_kind(MessageKind.VECTOR) == 3
        assert log.total_transmissions == 3

    def test_zero_units_ignored(self):
        log = CommunicationLog()
        log.record(Direction.SITE_TO_COORDINATOR, MessageKind.SCALAR, 0)
        assert log.total_messages == 0
        assert log.total_transmissions == 0

    def test_negative_units_rejected(self):
        log = CommunicationLog()
        with pytest.raises(ValueError):
            log.record(Direction.SITE_TO_COORDINATOR, MessageKind.SCALAR, -1)

    def test_records_retained_when_requested(self):
        log = CommunicationLog(keep_records=True)
        log.record(Direction.SITE_TO_COORDINATOR, MessageKind.VECTOR, 2, site=1,
                   description="rows")
        assert len(log.records) == 1
        record = log.records[0]
        assert record.site == 1
        assert record.units == 2
        assert record.description == "rows"
        assert list(iter(log)) == log.records

    def test_records_not_retained_by_default(self):
        log = CommunicationLog()
        log.record(Direction.SITE_TO_COORDINATOR, MessageKind.VECTOR, 2)
        assert log.records == []

    def test_as_dict_keys(self):
        log = CommunicationLog()
        log.record(Direction.SITE_TO_COORDINATOR, MessageKind.SCALAR, 1)
        summary = log.as_dict()
        assert summary["total_messages"] == 1
        assert summary["kind_scalar"] == 1
        assert "upstream_messages" in summary


class TestNetwork:
    def test_site_uplinks(self):
        network = Network(num_sites=4)
        network.send_scalar(0)
        network.send_vector(1, units=5)
        network.send_summary(2, units=7)
        assert network.total_messages == 13
        counts = network.message_counts()
        assert counts["kind_scalar"] == 1
        assert counts["kind_vector"] == 5
        assert counts["kind_summary"] == 7

    def test_broadcast_counts_per_site(self):
        network = Network(num_sites=6)
        network.broadcast()
        assert network.total_messages == 6
        network.broadcast(units_per_site=2)
        assert network.total_messages == 18

    def test_invalid_site_rejected(self):
        network = Network(num_sites=2)
        with pytest.raises(ValueError):
            network.send_scalar(2)
        with pytest.raises(ValueError):
            network.send_vector(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Network(num_sites=0)

    def test_repr(self):
        assert "num_sites=3" in repr(Network(num_sites=3))


class TestSendBatch:
    """``send_batch`` must be indistinguishable from the per-item send loop."""

    @pytest.mark.parametrize("keep_records", [False, True])
    @pytest.mark.parametrize("kind,count,units", [
        (MessageKind.VECTOR, 5, 1),
        (MessageKind.SCALAR, 3, 1),
        (MessageKind.VECTOR, 17, 4),
    ])
    def test_matches_per_item_send_loop(self, kind, count, units, keep_records):
        looped = Network(num_sites=3, keep_records=keep_records)
        for _ in range(count):
            looped.log.record(Direction.SITE_TO_COORDINATOR, kind, units,
                              site=1, description="payload")
        batched = Network(num_sites=3, keep_records=keep_records)
        batched.send_batch(1, count, kind=kind, units_per_message=units,
                           description="payload")
        assert batched.total_messages == looped.total_messages
        assert batched.message_counts() == looped.message_counts()
        assert batched.log.records == looped.log.records

    def test_interleaves_with_single_sends(self):
        """Sequence numbers keep advancing across batched and single sends."""
        network = Network(num_sites=2, keep_records=True)
        network.send_scalar(0)
        network.send_batch(1, 3)
        network.send_scalar(0)
        sequences = [record.sequence for record in network.log.records]
        assert sequences == [1, 2, 3, 4, 5]
        assert network.log.total_transmissions == 5
        assert network.total_messages == 5

    def test_zero_count_is_noop(self):
        network = Network(num_sites=1, keep_records=True)
        network.send_batch(0, 0)
        assert network.total_messages == 0
        assert network.log.total_transmissions == 0
        assert network.log.records == []

    def test_negative_count_rejected(self):
        network = Network(num_sites=1)
        with pytest.raises(ValueError):
            network.send_batch(0, -1)
        with pytest.raises(ValueError):
            network.send_batch(0, 1, units_per_message=-2)

    def test_out_of_range_site_rejected(self):
        network = Network(num_sites=2)
        with pytest.raises(ValueError):
            network.send_batch(2, 1)
