"""Protocol P2: per-element thresholds (Section 4.2, Algorithms 4.3/4.4).

This protocol adapts the deterministic frequency-tracking protocol of Yi and
Zhang to weighted items.  Each site tracks

* ``W_i`` — the weight received since its last *total* message, and
* ``Δ_e`` — per element, the weight of ``e`` received since the site last
  reported ``e``.

Whenever ``W_i`` reaches ``(ε/m)·Ŵ`` the site sends the scalar ``W_i`` and
resets it; whenever some ``Δ_e`` reaches ``(ε/m)·Ŵ`` the site sends the single
element update ``(e, Δ_e)`` and resets it.  The coordinator adds element
updates into its per-element estimates, adds scalar totals into ``Ŵ`` and,
after every ``m`` scalar messages, broadcasts the new ``Ŵ`` (starting the next
round).

Guarantees (Theorem 1): estimates within ``ε·W`` using ``O((m/ε)·log(βN))``
messages — a factor ``1/ε`` fewer than P1.

Space note: the per-site ``Δ`` map can be replaced by a weighted SpaceSaving
sketch of ``O(m/ε)`` counters (the paper's space reduction); pass
``site_space`` to enable this.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Any, Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..sketch.base import counter_columns, counter_dict
from ..sketch.space_saving import WeightedSpaceSaving
from ..streaming.items import _as_element_column
from ..streaming.network import MessageKind
from ..streaming.protocol import first_crossing, group_elements
from ..streaming.weight_rounds import ThresholdRounds
from ..utils.declared import Declared
from ..utils.validation import check_positive_int
from .base import WeightedHeavyHitterProtocol

__all__ = ["ThresholdedUpdatesProtocol"]


class _SiteState(Declared):
    """Per-site state for protocol P2."""

    #: The SpaceSaving sketch bounding the deltas is ``None`` without
    #: ``site_space``.
    STATE = {"weight_since_total": "weight_since_total", "sketch": "sketch"}

    def __init__(self, site_space: Optional[int]):
        self.weight_since_total = 0.0
        self.deltas: Dict[Hashable, float] = {}
        self.sketch: Optional[WeightedSpaceSaving[Hashable]] = (
            WeightedSpaceSaving(site_space) if site_space is not None else None
        )

    def state_dict(self) -> Dict[str, Any]:
        """Also the pending deltas, as a keys/values pair."""
        return {**super().state_dict(), "deltas": counter_columns(self.deltas)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self.deltas = counter_dict(state["deltas"])

    def add(self, element: Hashable, weight: float) -> float:
        """Accumulate ``weight`` for ``element``; return the new pending delta."""
        self.weight_since_total += weight
        if self.sketch is None:
            new_delta = self.deltas.get(element, 0.0) + weight
            self.deltas[element] = new_delta
            return new_delta
        self.sketch.update(element, weight)
        return self.sketch.estimate(element)

    def reset_element(self, element: Hashable) -> None:
        """Clear the pending delta of ``element`` after it has been reported."""
        if self.sketch is None:
            self.deltas.pop(element, None)
        else:
            # SpaceSaving cannot decrement a single counter exactly; rebuild the
            # sketch without the reported element's mass by resetting it.  This
            # mirrors the paper's remark that SpaceSaving is only used to bound
            # space — the tracked error budget is unaffected because the element
            # was reported with its full estimated delta.
            remaining = {
                key: value
                for key, value in self.sketch.to_dict().items()
                if key != element
            }
            sketch = WeightedSpaceSaving[Hashable](self.sketch.num_counters)
            for key, value in remaining.items():
                if value > 0.0:
                    sketch.update(key, value)
            self.sketch = sketch


class ThresholdedUpdatesProtocol(ThresholdRounds, WeightedHeavyHitterProtocol):
    """Weighted heavy hitters protocol P2 (per-element threshold updates).

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    epsilon:
        Target additive error ``ε``.
    site_space:
        If given, each site bounds its per-element state with a weighted
        SpaceSaving sketch of this many counters instead of an exact map
        (the paper suggests ``O(m/ε)``).
    keep_message_records:
        Retain a full message log (tests only).
    """

    def __init__(self, num_sites: int, epsilon: float,
                 site_space: Optional[int] = None,
                 keep_message_records: bool = False):
        super().__init__(num_sites, epsilon, keep_message_records=keep_message_records)
        if site_space is not None:
            site_space = check_positive_int(site_space, name="site_space")
        self._sites: List[_SiteState] = [_SiteState(site_space) for _ in range(num_sites)]
        # Coordinator state.
        self._init_rounds()
        self._element_estimates: Dict[Hashable, float] = {}

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(),
                "element_estimates": counter_columns(self._element_estimates)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._element_estimates = counter_dict(state["element_estimates"])

    def _repr_params(self):
        params = super()._repr_params()
        sketch = self._sites[0].sketch if self._sites else None
        if sketch is not None:
            params["site_space"] = sketch.num_counters
        return params

    # ------------------------------------------------------------ properties
    @classmethod
    def default_site_space(cls, num_sites: int, epsilon: float) -> int:
        """The paper's suggested per-site space bound ``O(m/ε)`` in counters."""
        return max(1, math.ceil(num_sites / epsilon))

    # ---------------------------------------------------------------- site side
    def process(self, site: int, element: Hashable, weight: float = 1.0) -> None:
        weight = self._record_observation(weight)
        state = self._sites[site]
        pending_delta = state.add(element, weight)
        threshold = self._threshold()
        if state.weight_since_total >= threshold:
            self._send_total(site, state.weight_since_total)
            state.weight_since_total = 0.0
        if pending_delta >= self._threshold():
            self._send_element(site, element, pending_delta)
            state.reset_element(element)

    def process_batch(self, site: int, elements: Sequence[Hashable],
                      weights: Optional[Sequence[float]] = None) -> None:
        """Vectorized site-batch ingestion.

        The batch is split at every total-weight trigger: a binary search on
        the cumulative weights locates the first item that lifts ``W_i`` to
        the threshold ``(ε/m)·Ŵ`` (which is where ``Ŵ`` — and hence the
        threshold — next changes).  Within the trigger-free segment before
        it, the threshold is constant and distinct elements' pending deltas
        evolve independently.  The batch's labels are grouped once
        (:func:`~repro.streaming.protocol.group_elements`); each segment
        then takes its elements' weight sums with one ``np.bincount`` and
        runs a binary search on an element's own cumulative weights only
        for the few elements whose ``Δ_e`` reaches the threshold, with the
        message accounting advanced in one batched step.  ``np.bincount``
        adds a bin's weights sequentially, in index order, from ``0.0`` —
        the additions of a cumulative sum over that element's positions — so
        every pending delta is the float a per-element loop would get; and
        deltas are written back in the order the segment's own grouping
        lists its elements, which fixes the insertion order of the site's
        and the coordinator's dictionaries.  The trigger item
        itself replays the per-item order exactly: accumulate, ship ``W_i``,
        then check its element against the refreshed threshold.  Message
        counts and coordinator state match per-item ingestion of the same
        site-grouped order (up to floating-point summation order).

        Sites bounded by a SpaceSaving sketch (``site_space``) couple their
        elements through counter evictions; they use the same vectorized
        kernel via a merge-sweep whenever the batch provably cannot evict
        (every distinct element of the sketch and the batch fits within the
        counter budget — the common case under the paper's ``O(m/ε)``
        sizing) and fall back to the exact per-item replay otherwise.
        """
        state = self._sites[site]
        if state.sketch is not None:
            if self._sketch_batch_may_evict(state.sketch, elements):
                # Evictions couple elements: replay the exact per-item path.
                if weights is None:
                    for element in elements:
                        self.process(site, element)
                else:
                    for element, weight in zip(elements, weights):
                        self.process(site, element, float(weight))
                return
            weights = self._record_observations(weights, len(elements))
            if weights.shape[0] == 0:
                return
            if not (isinstance(elements, np.ndarray) and elements.ndim == 1):
                elements = _as_element_column(list(elements))
            self._process_batch_sketch_merge_sweep(site, state, elements, weights)
            return
        weights = self._record_observations(weights, len(elements))
        total = weights.shape[0]
        if total == 0:
            return
        if not (isinstance(elements, np.ndarray) and elements.ndim == 1):
            elements = _as_element_column(list(elements))
        self._process_batch_deltas(site, state, elements, weights)

    def _process_batch_deltas(self, site: int, state: _SiteState,
                              elements: np.ndarray,
                              weights: np.ndarray) -> None:
        """The vectorized trigger-splitting kernel over ``state.deltas``."""
        total = weights.shape[0]
        cumulative = np.cumsum(weights)
        keys, inverse = group_elements(elements)
        consumed = 0.0
        start = 0
        while start < total:
            threshold = self._threshold()
            trigger = first_crossing(cumulative, threshold,
                                     carry=state.weight_since_total - consumed,
                                     start=start)
            stop = min(trigger, total)
            if stop > start:
                self._apply_element_updates(site, state, keys, elements[start:stop],
                                            inverse[start:stop], weights[start:stop],
                                            threshold)
            if trigger >= total:
                state.weight_since_total += float(cumulative[-1]) - consumed
                return
            element = elements[trigger]
            new_delta = state.deltas.get(element, 0.0) + float(weights[trigger])
            state.deltas[element] = new_delta
            total_weight = (state.weight_since_total
                            + float(cumulative[trigger]) - consumed)
            self._send_total(site, total_weight)
            state.weight_since_total = 0.0
            consumed = float(cumulative[trigger])
            if new_delta >= self._threshold():
                self._send_element(site, element, new_delta)
                state.reset_element(element)
            start = trigger + 1

    @staticmethod
    def _sketch_batch_may_evict(sketch: WeightedSpaceSaving,
                                elements: Sequence[Hashable]) -> bool:
        """Whether ingesting ``elements`` could evict a SpaceSaving counter.

        Element reports only *free* counters, so if every distinct element
        already tracked plus every distinct element of the batch fits within
        the counter budget, no arrival order of the batch can evict.
        """
        candidates = set(sketch.to_dict())
        budget = sketch.num_counters
        for element in elements:
            candidates.add(element)
            if len(candidates) > budget:
                return True
        return False

    def _process_batch_sketch_merge_sweep(self, site: int, state: _SiteState,
                                          elements: np.ndarray,
                                          weights: np.ndarray) -> None:
        """Batched update of a SpaceSaving-bounded site with no eviction risk.

        When no eviction can occur, the sketch behaves exactly like the
        per-element delta map: estimates grow additively and element reports
        remove one counter.  The kernel therefore extracts the counters into
        ``state.deltas``, runs the shared vectorized trigger-splitting path,
        and installs the result back in one merge-sweep, reconstructing the
        bookkeeping the per-item path would have left behind:

        * **no element report in the batch** — over-counts are untouched and
          the total weight grows by the batch weight;
        * **≥ 1 report** — ``reset_element`` rebuilds the sketch from its
          retained counters, which zeroes every over-count and re-bases the
          total weight at the retained mass; from that point both quantities
          track the retained estimates exactly, so the final state is
          ``{element: (estimate, 0)}`` with total weight ``Σ estimates``.

        Message accounting and coordinator state match the per-item replay
        exactly (the dict kernel's documented guarantee).
        """
        sketch = state.sketch
        overcounts = {element: sketch.overestimate_of(element)
                      for element in sketch.to_dict()}
        state.deltas = sketch.to_dict()
        state.sketch = None
        reports_before = self.network.log.messages_of_kind(MessageKind.VECTOR)
        try:
            self._process_batch_deltas(site, state, elements, weights)
        finally:
            reported = (self.network.log.messages_of_kind(MessageKind.VECTOR)
                        > reports_before)
            retained = state.deltas
            if reported:
                counters = {element: (value, 0.0)
                            for element, value in retained.items()}
                total_weight = sum(retained.values())
            else:
                counters = {element: (value, overcounts.get(element, 0.0))
                            for element, value in retained.items()}
                total_weight = sketch.total_weight + float(weights.sum())
            state.sketch = WeightedSpaceSaving.from_counters(
                sketch.num_counters, counters, total_weight
            )
            state.deltas = {}

    def _apply_element_updates(self, site: int, state: _SiteState,
                               keys: np.ndarray, elements: np.ndarray,
                               inverse: np.ndarray, weights: np.ndarray,
                               threshold: float) -> None:
        """Per-element delta tracking for a segment with no total trigger.

        ``keys``/``inverse`` are the batch's grouping and ``elements``,
        ``inverse`` and ``weights`` the segment's slices.  Each element's
        segment sum is one bin of ``np.bincount``, which adds a bin's weights
        one by one in index order starting from ``0.0`` — the very additions
        ``np.cumsum`` over the element's positions makes — so the pending
        delta ``initial + sum`` is the same float the per-element loop got.
        Elements that stay below the threshold only have their delta
        written back.  For the rest, the send events telescope: the mass
        delivered to the coordinator over all of an element's sends is the
        initial pending delta plus its cumulative weight at the last
        crossing, and the leftover becomes the new pending delta — so the
        coordinator estimate (additive) and the site state are updated once
        per element, and the vector-message count once per segment, exactly
        matching the per-item event sequence.

        Deltas are written back in the order the segment's own grouping
        would list its elements — ascending keys for ``np.unique``
        groupings, first arrival within the segment (and the first-arriving
        label object) for object labels — so the insertion order of
        ``state.deltas`` and of the coordinator's estimates is the one a
        segment-by-segment grouping leaves.
        """
        sums = np.bincount(inverse, weights=weights, minlength=keys.shape[0])
        if keys.dtype == object:
            firsts = np.unique(inverse, return_index=True)[1]
            firsts.sort()
            present = inverse[firsts]
            labels = list(elements[firsts])
        else:
            present = np.flatnonzero(sums)  # weights are strictly positive
            labels = list(keys[present])
        sums = sums[present]
        initials = list(map(state.deltas.get, labels, repeat(0.0)))
        finals = np.asarray(initials) + sums
        state.deltas.update(zip(labels, finals.tolist()))
        sends = 0
        for index in np.flatnonzero(finals >= threshold).tolist():
            element = labels[index]
            initial = initials[index]
            group_cumulative = np.cumsum(weights[inverse == present[index]])
            length = group_cumulative.shape[0]
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
            self._element_estimates[element] = (
                self._element_estimates.get(element, 0.0) + delivered
            )
            leftover = float(group_cumulative[-1]) - float(group_cumulative[last_sent])
            if leftover > 0.0:
                state.deltas[element] = leftover
            else:
                del state.deltas[element]
        if sends:
            self.network.send_batch(site, sends, kind=MessageKind.VECTOR,
                                    description="element updates")

    def _send_element(self, site: int, element: Hashable, delta: float) -> None:
        """Site ships the element update ``(e, Δ_e)``."""
        self.network.send_vector(site, description=f"element update {element!r}")
        self._element_estimates[element] = (
            self._element_estimates.get(element, 0.0) + delta
        )

    # ---------------------------------------------------------------- queries
    def estimate(self, element: Hashable) -> float:
        return self._element_estimates.get(element, 0.0)

    def estimated_total_weight(self) -> float:
        return self._estimated_total

    def estimates(self) -> Dict[Hashable, float]:
        return dict(self._element_estimates)
