"""Protocol P1: batched Misra–Gries summaries (Section 4.1, Algorithms 4.1/4.2).

Each site runs a weighted Misra–Gries summary with error parameter
``ε' = ε/2`` (i.e. ``2/ε`` counters) over the items it receives and tracks the
total weight ``W_i`` it has accumulated since its last communication.  When
``W_i`` reaches the threshold ``τ = (ε/2m)·Ŵ`` — with ``Ŵ`` the coordinator's
current estimate of the global weight — the site ships its entire summary and
``W_i`` to the coordinator and resets.  The coordinator merges incoming
summaries into a single Misra–Gries summary (mergeability keeps the error
bound) and re-broadcasts ``Ŵ`` whenever its tracked total has grown by more
than a ``(1 + ε/2)`` factor.

Guarantees (Lemma 2): every element estimate is within ``ε·W`` and the total
communication is ``O((m/ε²)·log(βN))`` message units (each shipped summary
counts as one unit per retained counter, matching the paper's element-count
accounting).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence

from ..sketch.base import aggregate_weighted_batch
from ..sketch.misra_gries import WeightedMisraGries
from ..streaming.weight_rounds import FlushRounds
from ..utils.validation import check_positive_int
from .base import WeightedHeavyHitterProtocol

__all__ = ["BatchedMisraGriesProtocol"]


class _SiteState:
    """Per-site state: the local MG summary and the unreported weight."""

    def __init__(self, num_counters: int):
        self.summary: WeightedMisraGries[Hashable] = WeightedMisraGries(num_counters)
        self.weight_since_send = 0.0


class BatchedMisraGriesProtocol(FlushRounds, WeightedHeavyHitterProtocol):
    """Weighted heavy hitters protocol P1 (batched Misra–Gries).

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    epsilon:
        Target additive error ``ε`` (relative to the total weight ``W``).
    num_counters:
        Number of Misra–Gries counters per site; defaults to ``ceil(2/ε)``
        (the paper's ``ε' = ε/2``).
    keep_message_records:
        Retain a full message log (tests only).
    """

    def __init__(self, num_sites: int, epsilon: float,
                 num_counters: Optional[int] = None,
                 keep_message_records: bool = False):
        super().__init__(num_sites, epsilon, keep_message_records=keep_message_records)
        if num_counters is None:
            num_counters = max(1, math.ceil(2.0 / self.epsilon))
        self._num_counters = check_positive_int(num_counters, name="num_counters")
        self._sites: List[_SiteState] = [
            _SiteState(self._num_counters) for _ in range(num_sites)
        ]
        # Coordinator state.
        self._coordinator_summary: WeightedMisraGries[Hashable] = WeightedMisraGries(
            self._num_counters
        )
        self._init_rounds()

    #: Checkpoint-contract version of this class's state layout (see
    #: :mod:`repro.utils.stateio`); bump on incompatible changes.
    state_version = 1

    def _repr_params(self):
        params = super()._repr_params()
        params["num_counters"] = self._num_counters
        return params

    # ------------------------------------------------------------ properties
    @property
    def num_counters(self) -> int:
        """Misra–Gries counters per site (and at the coordinator)."""
        return self._num_counters

    # ---------------------------------------------------------------- site side
    def process(self, site: int, element: Hashable, weight: float = 1.0) -> None:
        weight = self._record_observation(weight)
        self._sites[site].summary.update(element, weight)
        self._credit_site(site, weight)

    def process_batch(self, site: int, elements: Sequence[Hashable],
                      weights: Optional[Sequence[float]] = None) -> None:
        """Vectorized site-batch ingestion.

        The batch is cut at its flushes (:meth:`_flush_segments`); each
        segment is folded into the site summary with one aggregated
        Misra–Gries update before the site flushes.  Flush *timing* (after
        which item a summary ships) therefore matches item-at-a-time
        ingestion up to floating-point accumulation order; only the summary
        contents follow the aggregated-update semantics of
        :meth:`~repro.sketch.misra_gries.WeightedMisraGries.update_batch`.
        """
        weights = self._record_observations(weights, len(elements))
        state = self._sites[site]
        for start, stop, segment_weight, flushes in self._flush_segments(
                site, weights):
            state.summary.ingest_aggregated(
                *aggregate_weighted_batch(elements[start:stop],
                                          weights[start:stop]),
                segment_weight,
            )
            if flushes:
                self._flush_site(site)

    def _flush_site(self, site: int) -> None:
        """Ship the site's summary and accumulated weight to the coordinator."""
        state = self._sites[site]
        units = max(1, len(state.summary)) + 1  # counters plus the weight scalar
        self.network.send_summary(site, units=units, description="MG summary")
        self._coordinator_summary.merge_in_place(state.summary)
        self._receive_weight(state.weight_since_send)
        state.summary = WeightedMisraGries(self._num_counters)
        state.weight_since_send = 0.0

    # ---------------------------------------------------------------- queries
    def estimate(self, element: Hashable) -> float:
        return self._coordinator_summary.estimate(element)

    def estimated_total_weight(self) -> float:
        return self._coordinator_weight

    def estimates(self) -> Dict[Hashable, float]:
        return self._coordinator_summary.to_dict()
