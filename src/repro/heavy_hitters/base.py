"""Interface for distributed weighted heavy-hitter protocols (Section 4).

A weighted heavy-hitter protocol coordinates ``m`` sites that each observe a
stream of ``(element, weight)`` pairs.  At any time the coordinator must be
able to

* estimate the total stream weight ``W`` within ``ε·W``,
* estimate every element's weight ``f_e`` within ``ε·W``, and
* report the ``φ``-weighted heavy hitters: an element is returned when its
  estimated relative weight is at least ``φ − ε/2`` (the reporting rule of
  Lemma 1 of the paper), which guarantees every true ``φ``-heavy hitter is
  returned and nothing below ``φ − ε`` is returned.

No party holds the exact ``W``: whoever needs it holds the stream and sums
its weights (or runs the ``hh/exact`` baseline beside the protocol).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..streaming.protocol import DistributedProtocol
from ..utils.validation import check_epsilon, check_phi, check_weight, check_weight_batch

__all__ = ["HeavyHitter", "WeightedHeavyHitterProtocol", "select_heavy_hitters"]


@dataclass(frozen=True)
class HeavyHitter:
    """One reported heavy hitter: the element, its estimated and relative weight."""

    element: Hashable
    estimated_weight: float
    relative_weight: float


def select_heavy_hitters(estimates: Dict[Hashable, float], total: float,
                         epsilon: float, phi: float) -> List[HeavyHitter]:
    """Apply the paper's Lemma 1 reporting rule to a candidate estimate map.

    Returns the elements whose estimated relative weight (against ``total``)
    is at least ``φ − ε/2``, sorted by decreasing estimated weight.  Shared
    by :meth:`WeightedHeavyHitterProtocol.heavy_hitters` and the cluster
    layer's merged-answer path (which applies the same rule to counter-merged
    per-shard estimates), so both report under the identical rule.
    """
    phi = check_phi(phi, name="phi")
    if total <= 0.0:
        return []
    cutoff = phi - epsilon / 2.0
    hitters = []
    for element, estimate in estimates.items():
        relative = estimate / total
        if relative >= cutoff:
            hitters.append(HeavyHitter(element, estimate, relative))
    hitters.sort(key=lambda hitter: (-hitter.estimated_weight, repr(hitter.element)))
    return hitters


class WeightedHeavyHitterProtocol(DistributedProtocol):
    """Base class for the four weighted heavy-hitter protocols P1–P4.

    Parameters
    ----------
    num_sites:
        Number of distributed sites ``m``.
    epsilon:
        Approximation parameter ``ε``: all estimates are within ``ε·W``.
    keep_message_records:
        Retain the full per-message log (for debugging/tests only).
    """

    def __init__(self, num_sites: int, epsilon: float,
                 keep_message_records: bool = False):
        super().__init__(num_sites, keep_message_records=keep_message_records)
        self._epsilon = check_epsilon(epsilon)

    # ------------------------------------------------------------ properties
    @property
    def epsilon(self) -> float:
        """The approximation parameter ``ε``."""
        return self._epsilon

    def _record_observation(self, weight: float) -> float:
        """Validate ``weight`` and count the item."""
        weight = check_weight(weight, name="weight")
        self._count_item()
        return weight

    def _record_observations(self, weights: Optional[Sequence[float]],
                             count: int) -> np.ndarray:
        """Batch analogue of :meth:`_record_observation`.

        Validates a whole weight column at once (``None`` means unit
        weights), counts the items, and returns the weights as a float array.
        """
        weights = check_weight_batch(weights, count=count)
        self._count_items(count)
        return weights

    # ----------------------------------------------------------- protocol API
    @abc.abstractmethod
    def process(self, site: int, element: Hashable, weight: float = 1.0) -> None:
        """Handle the arrival of ``(element, weight)`` at ``site``."""

    @abc.abstractmethod
    def estimate(self, element: Hashable) -> float:
        """Coordinator estimate ``Ŵ_e`` of the total weight of ``element``."""

    @abc.abstractmethod
    def estimated_total_weight(self) -> float:
        """Coordinator estimate ``Ŵ`` of the total stream weight."""

    @abc.abstractmethod
    def estimates(self) -> Dict[Hashable, float]:
        """All candidate elements retained by the coordinator with estimates."""

    # --------------------------------------------------------------- queries
    def estimate_error_bound(self) -> float:
        """Additive bound ``ε·Ŵ`` on every frequency estimate right now.

        Reported with the coordinator's total-weight estimate ``Ŵ`` standing
        in for the true ``W``; the zero-error forwarding baseline overrides
        this with 0.  The ``repro.api`` query layer surfaces the value as
        ``Answer.error_bound``.
        """
        return self._epsilon * self.estimated_total_weight()

    def heavy_hitters(self, phi: float) -> List[HeavyHitter]:
        """Return elements with estimated relative weight at least ``φ − ε/2``.

        The result is sorted by decreasing estimated weight.  Following
        Lemma 1 of the paper this rule returns every true ``φ``-heavy hitter
        and never returns an element of relative weight below ``φ − ε``
        (provided the protocol meets its estimation guarantees).
        """
        return select_heavy_hitters(self.estimates(),
                                    self.estimated_total_weight(),
                                    self._epsilon, phi)

    def heavy_hitter_elements(self, phi: float) -> List[Hashable]:
        """Convenience wrapper returning only the element labels."""
        return [hitter.element for hitter in self.heavy_hitters(phi)]
