"""Unit tests for the weighted Misra-Gries summary."""

from __future__ import annotations

import pytest

from repro.sketch.misra_gries import WeightedMisraGries


def exact_counts(items):
    counts = {}
    for element, weight in items:
        counts[element] = counts.get(element, 0.0) + weight
    return counts


class TestBasicBehaviour:
    def test_exact_when_under_capacity(self):
        sketch = WeightedMisraGries(num_counters=10)
        items = [("a", 3.0), ("b", 2.0), ("a", 1.0)]
        sketch.update_many(items)
        assert sketch.estimate("a") == pytest.approx(4.0)
        assert sketch.estimate("b") == pytest.approx(2.0)
        assert sketch.estimate("c") == 0.0
        assert sketch.total_weight == pytest.approx(6.0)

    def test_underestimates_never_overestimate(self, zipf_sample):
        sketch = WeightedMisraGries(num_counters=20)
        sketch.update_many(zipf_sample.items)
        for element, truth in zipf_sample.element_weights.items():
            assert sketch.estimate(element) <= truth + 1e-9

    def test_error_bound_w_over_l(self, zipf_sample):
        num_counters = 25
        sketch = WeightedMisraGries(num_counters=num_counters)
        sketch.update_many(zipf_sample.items)
        bound = zipf_sample.total_weight / num_counters
        for element, truth in zipf_sample.element_weights.items():
            assert truth - sketch.estimate(element) <= bound + 1e-9

    def test_shrink_total_is_valid_error_bound(self, zipf_sample):
        sketch = WeightedMisraGries(num_counters=15)
        sketch.update_many(zipf_sample.items)
        assert sketch.true_error_bound() <= sketch.error_bound() + 1e-9
        for element, truth in zipf_sample.element_weights.items():
            assert truth - sketch.estimate(element) <= sketch.true_error_bound() + 1e-9

    def test_capacity_never_exceeded(self, zipf_sample):
        sketch = WeightedMisraGries(num_counters=8)
        for element, weight in zipf_sample.items:
            sketch.update(element, weight)
            assert len(sketch) <= 8

    def test_total_weight_tracks_stream(self):
        sketch = WeightedMisraGries(num_counters=2)
        sketch.update("x", 5.0)
        sketch.update("y", 2.5)
        sketch.update("z", 1.0)
        assert sketch.total_weight == pytest.approx(8.5)

    def test_heavy_item_survives_shrinks(self):
        sketch = WeightedMisraGries(num_counters=2)
        sketch.update("heavy", 100.0)
        for index in range(50):
            sketch.update(f"light-{index}", 1.0)
        assert sketch.estimate("heavy") >= 100.0 - 50.0

    def test_from_epsilon_counter_count(self):
        sketch = WeightedMisraGries.from_epsilon(0.1)
        assert sketch.num_counters == 10

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WeightedMisraGries(0)
        with pytest.raises(ValueError):
            WeightedMisraGries.from_epsilon(0.0)
        for epsilon in ("0.1", None):
            with pytest.raises(TypeError, match="epsilon"):
                WeightedMisraGries.from_epsilon(epsilon)

    def test_rejects_non_positive_weight(self):
        sketch = WeightedMisraGries(num_counters=4)
        with pytest.raises(ValueError):
            sketch.update("a", 0.0)
        with pytest.raises(ValueError):
            sketch.update("a", -1.0)

    def test_heavy_hitters_query(self, zipf_sample):
        sketch = WeightedMisraGries(num_counters=50)
        sketch.update_many(zipf_sample.items)
        hitters = sketch.heavy_hitters(0.05)
        truth = zipf_sample.heavy_hitters(0.05)
        # Every exact heavy hitter at threshold phi must appear with a sketch
        # of 1/eps counters for eps well below phi.
        returned = {element for element, _ in hitters}
        for element in truth:
            weight = zipf_sample.element_weights[element]
            if weight >= 0.07 * zipf_sample.total_weight:
                assert element in returned

    def test_repr_mentions_counters(self):
        assert "num_counters=3" in repr(WeightedMisraGries(3))


class TestMerge:
    def test_merge_preserves_totals(self, zipf_sample):
        half = len(zipf_sample.items) // 2
        left = WeightedMisraGries(num_counters=30)
        right = WeightedMisraGries(num_counters=30)
        left.update_many(zipf_sample.items[:half])
        right.update_many(zipf_sample.items[half:])
        merged = left.merge(right)
        assert merged.total_weight == pytest.approx(zipf_sample.total_weight)

    def test_merged_error_bound_holds(self, zipf_sample):
        num_counters = 30
        half = len(zipf_sample.items) // 2
        left = WeightedMisraGries(num_counters=num_counters)
        right = WeightedMisraGries(num_counters=num_counters)
        left.update_many(zipf_sample.items[:half])
        right.update_many(zipf_sample.items[half:])
        merged = left.merge(right)
        bound = zipf_sample.total_weight / num_counters
        for element, truth in zipf_sample.element_weights.items():
            estimate = merged.estimate(element)
            assert estimate <= truth + 1e-9
            assert truth - estimate <= bound + 1e-9

    def test_merged_capacity_respected(self, zipf_sample):
        half = len(zipf_sample.items) // 2
        left = WeightedMisraGries(num_counters=5)
        right = WeightedMisraGries(num_counters=5)
        left.update_many(zipf_sample.items[:half])
        right.update_many(zipf_sample.items[half:])
        assert len(left.merge(right)) <= 5

    def test_merge_requires_same_size(self):
        with pytest.raises(ValueError):
            WeightedMisraGries(3).merge(WeightedMisraGries(4))

    def test_merge_requires_same_type(self):
        with pytest.raises(TypeError):
            WeightedMisraGries(3).merge(object())

    def test_merge_with_empty_is_identity(self):
        left = WeightedMisraGries(num_counters=4)
        left.update("a", 2.0)
        merged = left.merge(WeightedMisraGries(num_counters=4))
        assert merged.estimate("a") == pytest.approx(2.0)

    def test_merge_in_place_matches_merge(self, zipf_sample):
        half = len(zipf_sample.items) // 2
        left = WeightedMisraGries(num_counters=12)
        right = WeightedMisraGries(num_counters=12)
        left.update_many(zipf_sample.items[:half])
        right.update_many(zipf_sample.items[half:])
        merged = left.merge(right)
        left.merge_in_place(right)
        assert left.to_dict() == merged.to_dict()
        assert left.total_weight == pytest.approx(merged.total_weight)
        assert left.shrink_total == pytest.approx(merged.shrink_total)

    def test_merged_data_dependent_bound_still_valid(self, zipf_sample):
        """``shrink_total`` stays a certificate after merging: the merged
        summary's under-count of every element is at most it, and it never
        exceeds the worst case ``(W₁+W₂)/ℓ``."""
        num_counters = 20
        half = len(zipf_sample.items) // 2
        left = WeightedMisraGries(num_counters=num_counters)
        right = WeightedMisraGries(num_counters=num_counters)
        left.update_many(zipf_sample.items[:half])
        right.update_many(zipf_sample.items[half:])
        merged = left.merge(right)
        assert merged.true_error_bound() <= merged.error_bound() + 1e-9
        for element, truth in zipf_sample.element_weights.items():
            assert truth - merged.estimate(element) <= (
                merged.true_error_bound() + 1e-9)
