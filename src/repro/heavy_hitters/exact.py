"""Centralized exact baseline: forward every item to the coordinator.

This is the trivial zero-error protocol used as the communication baseline in
Section 6 ("as a baseline, we could send all 10^7 stream elements to the
coordinator, this would have no error").  Every arriving item costs exactly
one vector message, so its total communication equals the stream length.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence

from ..sketch.base import batch_key
from ..sketch.exact import ExactFrequencyCounter
from .base import WeightedHeavyHitterProtocol

__all__ = ["ExactForwardingProtocol"]


class ExactForwardingProtocol(WeightedHeavyHitterProtocol):
    """Zero-error baseline that ships every stream item to the coordinator."""

    STATE = {"coordinator": "_coordinator"}

    def __init__(self, num_sites: int, epsilon: float = 1e-6,
                 keep_message_records: bool = False):
        super().__init__(num_sites, epsilon, keep_message_records=keep_message_records)
        self._coordinator = ExactFrequencyCounter()

    def process(self, site: int, element: Hashable, weight: float = 1.0) -> None:
        weight = self._record_observation(weight)
        element = batch_key(element)  # keyed as process_batch keys it
        self.network.send_vector(site, description=f"item {element!r}")
        self._coordinator.update(element, weight)

    def process_batch(self, site: int, elements: Sequence[Hashable],
                      weights: Optional[Sequence[float]] = None) -> None:
        """Forward a whole site batch: one logged transmission of ``n`` units.

        Message *units* (the paper's metric) match the per-item path exactly;
        only the number of logged transmissions differs.
        """
        weights = self._record_observations(weights, len(elements))
        if weights.shape[0] == 0:
            return
        self.network.send_vector(site, units=int(weights.shape[0]),
                                 description="forwarded batch")
        self._coordinator.update_batch(elements, weights)

    def estimate(self, element: Hashable) -> float:
        return self._coordinator.estimate(element)

    def estimated_total_weight(self) -> float:
        return self._coordinator.total_weight

    def estimates(self) -> Dict[Hashable, float]:
        return self._coordinator.to_dict()

    def estimate_error_bound(self) -> float:
        """The baseline forwards everything: its answers are exact."""
        return 0.0
