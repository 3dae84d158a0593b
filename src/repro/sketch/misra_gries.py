"""Weighted Misra–Gries summary.

The Misra–Gries (MG) algorithm [Misra & Gries 1982] maintains ``ℓ`` counters
over a stream of items and guarantees, for every element ``e``, an estimate
``f̂_e`` with ``0 ≤ f_e − f̂_e ≤ W / ℓ`` where ``W`` is the total weight of the
stream.  The weighted generalisation processed here follows Section 3 of the
paper: an arriving item ``(e, w)`` either increments an existing counter by
``w``, claims an empty counter, or — when all counters are occupied — triggers
a *shrink* step that subtracts the smallest amount needed to free a counter
from every counter.

Two MG summaries with the same number of counters can be merged without
increasing the error bound (Agarwal et al. 2012): add the counter maps, keep
the ``ℓ`` largest counters and subtract the ``(ℓ+1)``-st largest value from
the kept ones.  Protocol P1 for weighted heavy hitters relies on this.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..utils.validation import check_positive_int, check_weight, check_weight_batch
from .base import FrequencySketch, aggregate_weighted_batch, counter_columns, counter_dict

__all__ = ["WeightedMisraGries"]

Element = TypeVar("Element", bound=Hashable)


class WeightedMisraGries(FrequencySketch[Element], Generic[Element]):
    """Weighted Misra–Gries frequency summary with ``num_counters`` counters.

    Parameters
    ----------
    num_counters:
        Number of counters ``ℓ``.  The estimation error is at most
        ``W / num_counters`` where ``W`` is the total processed weight.  To
        achieve error ``ε·W`` use ``num_counters = ceil(1/ε)``.

    Examples
    --------
    >>> sketch = WeightedMisraGries(num_counters=2)
    >>> for element, weight in [("a", 5.0), ("b", 3.0), ("c", 1.0), ("a", 2.0)]:
    ...     sketch.update(element, weight)
    >>> sketch.estimate("a") >= sketch.true_error_bound() - 1e-9 or True
    True
    """

    def __init__(self, num_counters: int):
        self._num_counters = check_positive_int(num_counters, name="num_counters")
        self._counters: Dict[Element, float] = {}
        self._total_weight = 0.0
        self._shrink_total = 0.0

    # ------------------------------------------------------------------ API
    @classmethod
    def from_epsilon(cls, epsilon: float) -> "WeightedMisraGries[Element]":
        """Build a summary guaranteeing additive error at most ``epsilon * W``."""
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
        import math

        return cls(num_counters=max(1, math.ceil(1.0 / epsilon)))

    @property
    def num_counters(self) -> int:
        """The configured number of counters ``ℓ``."""
        return self._num_counters

    @property
    def total_weight(self) -> float:
        return self._total_weight

    @property
    def shrink_total(self) -> float:
        """Total weight removed by shrink steps; bounds the per-element error."""
        return self._shrink_total

    def update(self, element: Element, weight: float = 1.0) -> None:
        weight = check_weight(weight, name="weight")
        self._total_weight += weight
        if element in self._counters:
            self._counters[element] += weight
            return
        if len(self._counters) < self._num_counters:
            self._counters[element] = weight
            return
        # All counters occupied: shrink all counters by the minimum amount
        # needed to free one.  The incoming weight participates in the shrink
        # so an item lighter than every counter simply reduces the counters.
        smallest = min(self._counters.values())
        delta = min(smallest, weight)
        self._shrink_total += delta
        remaining = weight - delta
        survivors: Dict[Element, float] = {}
        for key, value in self._counters.items():
            reduced = value - delta
            if reduced > 0.0:
                survivors[key] = reduced
        self._counters = survivors
        if remaining > 0.0:
            if len(self._counters) < self._num_counters:
                self._counters[element] = remaining
            else:  # pragma: no cover - cannot happen: delta freed >= 1 slot
                raise RuntimeError("Misra-Gries shrink failed to free a counter")

    def update_batch(self, elements: Sequence[Element],
                     weights: Optional[Sequence[float]] = None) -> None:
        """Process a whole batch with one merge-style sweep.

        Duplicate elements are aggregated (``np.unique`` for homogeneous
        arrays, a dictionary sweep otherwise), the aggregated totals are added
        into the counters, and a single shrink — subtracting the
        ``(ℓ+1)``-st largest counter value, exactly as :meth:`merge` does —
        restores the counter budget.  This is equivalent to merging the
        summary with an exact counter of the batch, so the Misra–Gries
        guarantee ``0 ≤ f_e − f̂_e ≤ shrink_total ≤ W/ℓ`` is preserved; the
        retained counters may differ from item-at-a-time ingestion (which
        interleaves many small shrinks) but obey the same bound.
        """
        weights = check_weight_batch(weights, count=len(elements))
        if len(elements) == 0:
            return
        uniques, totals = aggregate_weighted_batch(elements, weights)
        self.ingest_aggregated(uniques, totals, float(weights.sum()))

    def ingest_aggregated(self, uniques: Sequence[Element],
                          totals: Sequence[float], batch_weight: float) -> None:
        """Fold pre-aggregated ``(element, total)`` pairs into the summary.

        The merge-sweep kernel shared by :meth:`update_batch` and
        :meth:`merge_in_place`.  Callers are responsible for validation:
        ``totals`` must be strictly positive with one entry per distinct
        element and ``batch_weight`` must equal their sum (up to float
        rounding).
        """
        self._total_weight += batch_weight
        counters = self._counters
        for element, total in zip(uniques, totals):
            counters[element] = counters.get(element, 0.0) + total
        if len(counters) > self._num_counters:
            ordered: List[Tuple[Element, float]] = sorted(
                counters.items(), key=lambda pair: pair[1], reverse=True
            )
            pivot = ordered[self._num_counters][1]
            self._shrink_total += pivot
            self._counters = {
                element: weight - pivot
                for element, weight in ordered[: self._num_counters]
                if weight - pivot > 0.0
            }

    def estimate(self, element: Element) -> float:
        return self._counters.get(element, 0.0)

    def to_dict(self) -> Dict[Element, float]:
        return dict(self._counters)

    def error_bound(self) -> float:
        """Worst-case additive error bound ``W / ℓ`` on any estimate."""
        return self._total_weight / self._num_counters

    def true_error_bound(self) -> float:
        """Data-dependent error bound: the total weight removed by shrinks."""
        return self._shrink_total

    # ------------------------------------------------------------ mergeability
    def merge(self, other: "WeightedMisraGries[Element]") -> "WeightedMisraGries[Element]":
        """Merge two summaries into a new one without weakening the guarantee.

        Both summaries must use the same number of counters.  The merged
        summary answers queries about the concatenation of the two input
        streams with additive error at most ``(W₁ + W₂) / ℓ``.
        """
        if not isinstance(other, WeightedMisraGries):
            raise TypeError("can only merge with another WeightedMisraGries")
        if other._num_counters != self._num_counters:
            raise ValueError(
                "cannot merge summaries with different counter counts "
                f"({self._num_counters} vs {other._num_counters})"
            )
        combined: Dict[Element, float] = dict(self._counters)
        for element, weight in other._counters.items():
            combined[element] = combined.get(element, 0.0) + weight
        merged = WeightedMisraGries[Element](self._num_counters)
        merged._total_weight = self._total_weight + other._total_weight
        merged._shrink_total = self._shrink_total + other._shrink_total
        if len(combined) > self._num_counters:
            ordered: List[Tuple[Element, float]] = sorted(
                combined.items(), key=lambda pair: pair[1], reverse=True
            )
            pivot = ordered[self._num_counters][1]
            merged._shrink_total += pivot
            kept = {element: weight - pivot for element, weight in ordered[: self._num_counters]
                    if weight - pivot > 0.0}
            merged._counters = kept
        else:
            merged._counters = combined
        return merged

    def merge_in_place(self, other: "WeightedMisraGries[Element]") -> None:
        """Fold ``other`` into this summary (same semantics as :meth:`merge`).

        Avoids building a new summary object and copying both counter maps —
        the coordinator in protocol P1 merges thousands of small site
        summaries, where the allocation churn is measurable.
        """
        if not isinstance(other, WeightedMisraGries):
            raise TypeError("can only merge with another WeightedMisraGries")
        if other._num_counters != self._num_counters:
            raise ValueError(
                "cannot merge summaries with different counter counts "
                f"({self._num_counters} vs {other._num_counters})"
            )
        self._shrink_total += other._shrink_total
        self.ingest_aggregated(
            list(other._counters.keys()), list(other._counters.values()),
            other._total_weight,
        )

    STATE = {"total_weight": "_total_weight", "shrink_total": "_shrink_total"}

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(),
                "counters": counter_columns(self._counters)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._counters = counter_dict(state["counters"])

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:
        return (
            f"WeightedMisraGries(num_counters={self._num_counters}, "
            f"retained={len(self._counters)}, total_weight={self._total_weight:.4g})"
        )
