"""Unit tests for the heavy-hitter base class behaviour and the exact baseline."""

from __future__ import annotations

import pytest

from repro.heavy_hitters.base import HeavyHitter
from repro.heavy_hitters.exact import ExactForwardingProtocol
from repro.streaming.partition import RoundRobinPartitioner


def feed(protocol, items):
    partitioner = RoundRobinPartitioner(protocol.num_sites)
    for index, (element, weight) in enumerate(items):
        protocol.process(partitioner.assign(index, element), element, weight)


class TestExactForwardingProtocol:
    def test_exact_estimates(self, zipf_sample):
        protocol = ExactForwardingProtocol(num_sites=4)
        feed(protocol, zipf_sample.items)
        for element, truth in zipf_sample.element_weights.items():
            assert protocol.estimate(element) == pytest.approx(truth)

    def test_one_message_per_item(self, zipf_sample):
        protocol = ExactForwardingProtocol(num_sites=4)
        feed(protocol, zipf_sample.items)
        assert protocol.total_messages == len(zipf_sample.items)

    def test_total_weight_matches(self, zipf_sample):
        protocol = ExactForwardingProtocol(num_sites=4)
        feed(protocol, zipf_sample.items)
        assert protocol.estimated_total_weight() == pytest.approx(
            sum(weight for _, weight in zipf_sample.items))

    def test_heavy_hitters_match_truth(self, zipf_sample):
        protocol = ExactForwardingProtocol(num_sites=4)
        feed(protocol, zipf_sample.items)
        phi = 0.05
        returned = set(protocol.heavy_hitter_elements(phi))
        assert set(zipf_sample.heavy_hitters(phi)) <= returned
        # With the exact protocol and tiny epsilon, nothing far below phi is
        # returned.
        for element in returned:
            share = zipf_sample.element_weights[element] / zipf_sample.total_weight
            assert share >= phi - protocol.epsilon


class TestHeavyHitterQueryRules:
    def test_report_rule_uses_phi_minus_half_epsilon(self):
        protocol = ExactForwardingProtocol(num_sites=1, epsilon=0.2)
        protocol.process(0, "big", 40.0)
        protocol.process(0, "borderline", 42.0)
        protocol.process(0, "small", 18.0)
        # Total weight 100; phi = 0.5 -> cutoff = 0.5 - 0.1 = 0.4.
        returned = protocol.heavy_hitter_elements(0.5)
        assert "borderline" in returned
        assert "big" in returned
        assert "small" not in returned

    def test_result_objects_sorted_by_weight(self):
        protocol = ExactForwardingProtocol(num_sites=1)
        protocol.process(0, "a", 10.0)
        protocol.process(0, "b", 30.0)
        hitters = protocol.heavy_hitters(0.1)
        assert [h.element for h in hitters] == ["b", "a"]
        assert isinstance(hitters[0], HeavyHitter)
        assert hitters[0].relative_weight == pytest.approx(0.75)

    def test_empty_protocol(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        assert protocol.heavy_hitters(0.1) == []
        assert protocol.estimated_total_weight() == 0.0

    def test_invalid_phi_rejected(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        protocol.process(0, "a", 1.0)
        with pytest.raises(ValueError):
            protocol.heavy_hitters(0.0)
        with pytest.raises(ValueError):
            protocol.heavy_hitters(1.5)

    def test_invalid_site_index_rejected(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        with pytest.raises((IndexError, ValueError)):
            protocol.process(5, "a", 1.0)

    def test_invalid_weight_rejected(self):
        protocol = ExactForwardingProtocol(num_sites=2)
        with pytest.raises(ValueError):
            protocol.process(0, "a", -1.0)
