"""Weighted SpaceSaving sketch.

SpaceSaving [Metwally, Agrawal, El Abbadi 2006] keeps ``ℓ`` counters.  When an
item with no counter arrives and all counters are occupied, the *smallest*
counter is reassigned to the new item and incremented, and the previous value
of that counter is remembered as the new item's maximum over-estimate.  The
weighted generalisation used in the paper (Sections 4.2 and 4.4 suggest it to
reduce per-site space) adds the item weight instead of 1.

Guarantees, with ``W`` the total processed weight and ``ℓ`` counters:

* every estimate over-counts: ``f_e ≤ f̂_e ≤ f_e + W/ℓ``;
* any element with true weight above ``W/ℓ`` is retained.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, Hashable, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..utils.validation import check_positive_int, check_weight, check_weight_batch
from .base import FrequencySketch, aggregate_weighted_batch, counter_columns, counter_dict

__all__ = ["WeightedSpaceSaving"]

Element = TypeVar("Element", bound=Hashable)


class WeightedSpaceSaving(FrequencySketch[Element], Generic[Element]):
    """Weighted SpaceSaving summary with ``num_counters`` counters.

    Unlike Misra–Gries, estimates are over-estimates; :meth:`overestimate_of`
    exposes the per-element bound on the over-count.
    """

    def __init__(self, num_counters: int):
        self._num_counters = check_positive_int(num_counters, name="num_counters")
        # element -> (estimated weight, maximum possible over-count)
        self._counters: Dict[Element, Tuple[float, float]] = {}
        self._total_weight = 0.0

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "WeightedSpaceSaving[Element]":
        """Build a summary guaranteeing over-count at most ``epsilon * W``."""
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
        import math

        return cls(num_counters=max(1, math.ceil(1.0 / epsilon)))

    @classmethod
    def from_counters(cls, num_counters: int,
                      counters: Dict[Element, Tuple[float, float]],
                      total_weight: float) -> "WeightedSpaceSaving[Element]":
        """Build a summary directly from ``{element: (estimate, over-count)}``.

        The batched merge-sweep site kernel of protocol ``hh/P2ss`` tracks a
        no-eviction segment in plain dictionaries and installs the result
        back in one step; ``counters`` must fit within ``num_counters`` and
        ``total_weight`` must be consistent with the represented stream.
        """
        summary = cls(num_counters)
        if len(counters) > summary._num_counters:
            raise ValueError(
                f"{len(counters)} counters exceed capacity {num_counters}"
            )
        summary._counters = dict(counters)
        summary._total_weight = float(total_weight)
        return summary

    @property
    def num_counters(self) -> int:
        """The configured number of counters ``ℓ``."""
        return self._num_counters

    @property
    def total_weight(self) -> float:
        return self._total_weight

    def update(self, element: Element, weight: float = 1.0) -> None:
        weight = check_weight(weight, name="weight")
        self._total_weight += weight
        if element in self._counters:
            estimate, overcount = self._counters[element]
            self._counters[element] = (estimate + weight, overcount)
            return
        if len(self._counters) < self._num_counters:
            self._counters[element] = (weight, 0.0)
            return
        # Evict the smallest counter and inherit its value as the over-count.
        victim = min(self._counters, key=lambda key: self._counters[key][0])
        victim_estimate, _ = self._counters.pop(victim)
        self._counters[element] = (victim_estimate + weight, victim_estimate)

    def update_batch(self, elements: Sequence[Element],
                     weights: Optional[Sequence[float]] = None) -> None:
        """Process a batch by aggregating duplicates first.

        Duplicate elements are collapsed into one total per distinct element
        and the totals are applied through the standard SpaceSaving update
        rule (increment, claim a free counter, or evict the minimum).  This
        equals item-at-a-time ingestion of the *aggregated* stream, which for
        SpaceSaving only tightens the over-count: evictions can happen no
        more often than in the un-aggregated order, so
        ``f_e ≤ f̂_e ≤ f_e + W/ℓ`` still holds.
        """
        weights = check_weight_batch(weights, count=len(elements))
        if len(elements) == 0:
            return
        uniques, totals = aggregate_weighted_batch(elements, weights)
        counters = self._counters
        for element, total in zip(uniques, totals):
            if element in counters:
                estimate, overcount = counters[element]
                counters[element] = (estimate + total, overcount)
            elif len(counters) < self._num_counters:
                counters[element] = (total, 0.0)
            else:
                victim = min(counters, key=lambda key: counters[key][0])
                victim_estimate, _ = counters.pop(victim)
                counters[element] = (victim_estimate + total, victim_estimate)
        self._total_weight += float(weights.sum())

    def estimate(self, element: Element) -> float:
        if element in self._counters:
            return self._counters[element][0]
        return 0.0

    def overestimate_of(self, element: Element) -> float:
        """Maximum amount by which :meth:`estimate` may exceed the true weight."""
        if element in self._counters:
            return self._counters[element][1]
        return 0.0

    def guaranteed_weight(self, element: Element) -> float:
        """A lower bound on the true weight of ``element``."""
        if element in self._counters:
            estimate, overcount = self._counters[element]
            return max(0.0, estimate - overcount)
        return 0.0

    def to_dict(self) -> Dict[Element, float]:
        return {element: value[0] for element, value in self._counters.items()}

    def error_bound(self) -> float:
        """Worst-case over-count bound ``W / ℓ``."""
        return self._total_weight / self._num_counters

    def merge(self, other: "WeightedSpaceSaving[Element]") -> "WeightedSpaceSaving[Element]":
        """Merge two summaries; the merged over-count bound is the sum of bounds."""
        if not isinstance(other, WeightedSpaceSaving):
            raise TypeError("can only merge with another WeightedSpaceSaving")
        if other._num_counters != self._num_counters:
            raise ValueError(
                "cannot merge summaries with different counter counts "
                f"({self._num_counters} vs {other._num_counters})"
            )
        combined: Dict[Element, Tuple[float, float]] = dict(self._counters)
        for element, (estimate, overcount) in other._counters.items():
            if element in combined:
                current_estimate, current_over = combined[element]
                combined[element] = (current_estimate + estimate, current_over + overcount)
            else:
                combined[element] = (estimate, overcount)
        merged = WeightedSpaceSaving[Element](self._num_counters)
        merged._total_weight = self._total_weight + other._total_weight
        if len(combined) > self._num_counters:
            ordered = sorted(combined.items(), key=lambda pair: pair[1][0], reverse=True)
            pivot = ordered[self._num_counters][1][0]
            merged._counters = {
                element: (estimate, overcount + pivot)
                for element, (estimate, overcount) in ordered[: self._num_counters]
            }
        else:
            merged._counters = combined
        return merged

    def merge_in_place(self, other: "WeightedSpaceSaving[Element]") -> None:
        """Fold ``other`` into this summary (same semantics as :meth:`merge`).

        The counterpart of ``WeightedMisraGries.merge_in_place`` for
        coordinators that fold many small site summaries into one without
        allocating a new summary per merge.
        """
        merged = self.merge(other)
        self._counters = merged._counters
        self._total_weight = merged._total_weight

    STATE = {"total_weight": "_total_weight"}

    def state_dict(self) -> Dict[str, Any]:
        """Also the estimates and over-counts, two columns over one key list."""
        return {**super().state_dict(), "estimates": counter_columns(
                    {key: value[0] for key, value in self._counters.items()}),
                "overcounts": np.array(
                    [value[1] for value in self._counters.values()])}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        estimates = counter_dict(state["estimates"])
        self._counters = dict(zip(estimates, zip(
            estimates.values(), state["overcounts"].tolist())))

    def __repr__(self) -> str:
        return (
            f"WeightedSpaceSaving(num_counters={self._num_counters}, "
            f"retained={len(self._counters)}, total_weight={self._total_weight:.4g})"
        )
