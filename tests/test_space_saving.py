"""Unit tests for the weighted SpaceSaving sketch."""

from __future__ import annotations

import pytest

from repro.sketch.space_saving import WeightedSpaceSaving


class TestSpaceSaving:
    def test_exact_when_under_capacity(self):
        sketch = WeightedSpaceSaving(num_counters=10)
        sketch.update("a", 4.0)
        sketch.update("b", 2.0)
        sketch.update("a", 1.0)
        assert sketch.estimate("a") == pytest.approx(5.0)
        assert sketch.overestimate_of("a") == 0.0
        assert sketch.guaranteed_weight("a") == pytest.approx(5.0)

    def test_estimates_never_underestimate_retained(self, zipf_sample):
        sketch = WeightedSpaceSaving(num_counters=25)
        sketch.update_many(zipf_sample.items)
        for element, estimate in sketch.to_dict().items():
            truth = zipf_sample.element_weights[element]
            assert estimate + 1e-9 >= truth - sketch.overestimate_of(element)
            assert estimate >= 0.0

    def test_overcount_bounded_by_w_over_l(self, zipf_sample):
        num_counters = 25
        sketch = WeightedSpaceSaving(num_counters=num_counters)
        sketch.update_many(zipf_sample.items)
        bound = zipf_sample.total_weight / num_counters
        for element, estimate in sketch.to_dict().items():
            truth = zipf_sample.element_weights[element]
            assert estimate - truth <= bound + 1e-9

    def test_heavy_elements_are_retained(self, zipf_sample):
        num_counters = 40
        sketch = WeightedSpaceSaving(num_counters=num_counters)
        sketch.update_many(zipf_sample.items)
        retained = set(sketch.to_dict())
        threshold = zipf_sample.total_weight / num_counters
        for element, weight in zipf_sample.element_weights.items():
            if weight > threshold:
                assert element in retained

    def test_capacity_never_exceeded(self, zipf_sample):
        sketch = WeightedSpaceSaving(num_counters=6)
        for element, weight in zipf_sample.items:
            sketch.update(element, weight)
            assert len(sketch) <= 6

    def test_total_weight(self):
        sketch = WeightedSpaceSaving(num_counters=2)
        sketch.update("x", 1.5)
        sketch.update("y", 2.5)
        sketch.update("z", 3.0)
        assert sketch.total_weight == pytest.approx(7.0)

    def test_eviction_inherits_counter(self):
        sketch = WeightedSpaceSaving(num_counters=1)
        sketch.update("a", 5.0)
        sketch.update("b", 1.0)
        # b evicted a and inherited its counter value.
        assert sketch.estimate("b") == pytest.approx(6.0)
        assert sketch.overestimate_of("b") == pytest.approx(5.0)
        assert sketch.guaranteed_weight("b") == pytest.approx(1.0)
        assert sketch.estimate("a") == 0.0

    def test_from_epsilon(self):
        assert WeightedSpaceSaving.from_epsilon(0.05).num_counters == 20
        with pytest.raises(ValueError):
            WeightedSpaceSaving.from_epsilon(0.0)
        for epsilon in ("0.1", None):
            with pytest.raises(TypeError, match="epsilon"):
                WeightedSpaceSaving.from_epsilon(epsilon)

    def test_rejects_invalid_weight(self):
        sketch = WeightedSpaceSaving(num_counters=2)
        with pytest.raises(ValueError):
            sketch.update("a", -1.0)

    def test_error_bound_value(self):
        sketch = WeightedSpaceSaving(num_counters=4)
        sketch.update("a", 8.0)
        assert sketch.error_bound() == pytest.approx(2.0)


class TestSpaceSavingMerge:
    def test_merge_totals(self, zipf_sample):
        half = len(zipf_sample.items) // 2
        left = WeightedSpaceSaving(num_counters=20)
        right = WeightedSpaceSaving(num_counters=20)
        left.update_many(zipf_sample.items[:half])
        right.update_many(zipf_sample.items[half:])
        merged = left.merge(right)
        assert merged.total_weight == pytest.approx(zipf_sample.total_weight)
        assert len(merged) <= 20

    def test_merge_error_bound(self, zipf_sample):
        num_counters = 30
        half = len(zipf_sample.items) // 2
        left = WeightedSpaceSaving(num_counters=num_counters)
        right = WeightedSpaceSaving(num_counters=num_counters)
        left.update_many(zipf_sample.items[:half])
        right.update_many(zipf_sample.items[half:])
        merged = left.merge(right)
        bound = 2.0 * zipf_sample.total_weight / num_counters
        for element, estimate in merged.to_dict().items():
            truth = zipf_sample.element_weights.get(element, 0.0)
            assert estimate - truth <= bound + 1e-9

    def test_merge_requires_same_size(self):
        with pytest.raises(ValueError):
            WeightedSpaceSaving(2).merge(WeightedSpaceSaving(3))

    def test_merge_requires_same_type(self):
        with pytest.raises(TypeError):
            WeightedSpaceSaving(2).merge("not a sketch")

    def test_merged_two_sided_guarantee(self, zipf_sample):
        """The standard merged guarantee: per retained element the over-count
        is certified by ``overestimate_of`` and the under-count (mass lost
        where the other summary had evicted the element) is at most the
        combined ``(W₁+W₂)/ℓ``."""
        num_counters = 25
        half = len(zipf_sample.items) // 2
        left = WeightedSpaceSaving(num_counters=num_counters)
        right = WeightedSpaceSaving(num_counters=num_counters)
        left.update_many(zipf_sample.items[:half])
        right.update_many(zipf_sample.items[half:])
        merged = left.merge(right)
        combined_bound = zipf_sample.total_weight / num_counters
        for element, estimate in merged.to_dict().items():
            truth = zipf_sample.element_weights.get(element, 0.0)
            assert estimate - truth <= merged.overestimate_of(element) + 1e-9
            assert truth - estimate <= combined_bound + 1e-9

    def test_merge_in_place_matches_merge(self, zipf_sample):
        half = len(zipf_sample.items) // 2
        left = WeightedSpaceSaving(num_counters=15)
        right = WeightedSpaceSaving(num_counters=15)
        left.update_many(zipf_sample.items[:half])
        right.update_many(zipf_sample.items[half:])
        merged = left.merge(right)
        left.merge_in_place(right)
        assert left.to_dict() == merged.to_dict()
        assert left.total_weight == pytest.approx(merged.total_weight)

    def test_from_counters_round_trips_state(self):
        original = WeightedSpaceSaving(num_counters=3)
        for element, weight in [("a", 5.0), ("b", 2.0), ("c", 1.0), ("d", 4.0)]:
            original.update(element, weight)
        rebuilt = WeightedSpaceSaving.from_counters(
            3, original._counters, original.total_weight)
        assert rebuilt.to_dict() == original.to_dict()
        assert rebuilt.total_weight == original.total_weight
        assert rebuilt.overestimate_of("d") == original.overestimate_of("d")

    def test_from_counters_rejects_overfull_maps(self):
        with pytest.raises(ValueError, match="capacity"):
            WeightedSpaceSaving.from_counters(
                1, {"a": (1.0, 0.0), "b": (2.0, 0.0)}, 3.0)
