"""Protocol P3: priority sampling (Section 4.3) and its with-replacement variant (4.3.1).

The sampling itself — priority draws, the threshold ``τ``, the coordinator's
queues or sampler slots and the estimator weights — is
:mod:`repro.streaming.priority_sampling`, shared with the matrix protocols.
This module adapts it to weighted items: every ``(element, weight)`` arrival
is a candidate of weight ``w``, the payload kept is the element label, and
the adjusted sample is read out grouped by element.

Guarantees (Theorem 2): with ``s = Θ((1/ε²)·log(1/ε))`` the without-
replacement protocol estimates all frequencies within ``ε·W`` using
``O((m + s)·log(βN/s))`` messages with large probability.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..streaming.priority_sampling import (
    WithoutReplacementSampling,
    WithReplacementSampling,
)
from ..utils.rng import SeedLike
from .base import WeightedHeavyHitterProtocol

__all__ = ["PrioritySamplingProtocol", "WithReplacementSamplingProtocol"]


class _ElementSampling(WeightedHeavyHitterProtocol):
    """Feeds weighted items to a sampling coordinator and reads it by element."""

    def _sample_description(self, payload: Hashable) -> str:
        return f"sampled item {payload!r}"

    def process(self, site: int, element: Hashable, weight: float = 1.0) -> None:
        weight = self._record_observation(weight)
        self._sample_item(site, element, weight)

    def process_batch(self, site: int, elements: Sequence[Hashable],
                      weights: Optional[Sequence[float]] = None) -> None:
        """Vectorized site-batch ingestion: one block priority draw,
        message-identical to per-item ingestion under the same seed."""
        weights = self._record_observations(weights, len(elements))
        self._sample_batch(site, weights, elements.__getitem__)

    def sample_with_adjusted_weights(self) -> List[Tuple[Hashable, float]]:
        """Return the coordinator sample as ``(element, adjusted weight)`` pairs."""
        return [(element, adjusted)
                for element, _, adjusted in self._adjusted_sample()]

    def estimate(self, element: Hashable) -> float:
        return sum(weight for candidate, weight in self.sample_with_adjusted_weights()
                   if candidate == element)

    def estimated_total_weight(self) -> float:
        return self._estimated_total()

    def estimates(self) -> Dict[Hashable, float]:
        grouped: Dict[Hashable, float] = {}
        for element, weight in self.sample_with_adjusted_weights():
            grouped[element] = grouped.get(element, 0.0) + weight
        return grouped


class PrioritySamplingProtocol(WithoutReplacementSampling, _ElementSampling):
    """Weighted heavy hitters protocol P3 (priority sampling without replacement).

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    epsilon:
        Target additive error ``ε``.
    sample_size:
        Coordinator sample size ``s``; defaults to
        ``sample_size_for_epsilon(epsilon, sample_constant)``.
    sample_constant:
        Leading constant of the default sample size.
    seed:
        Seed for the per-site priority draws.
    keep_message_records:
        Retain a full message log (tests only).
    """

    def __init__(self, num_sites: int, epsilon: float,
                 sample_size: Optional[int] = None, sample_constant: float = 1.0,
                 seed: SeedLike = None, keep_message_records: bool = False):
        super().__init__(num_sites, epsilon, keep_message_records=keep_message_records)
        self._init_sampling(sample_size, sample_constant, seed)


class WithReplacementSamplingProtocol(WithReplacementSampling, _ElementSampling):
    """Weighted heavy hitters protocol P3wr (``s`` independent samplers).

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    epsilon:
        Target additive error ``ε``.
    num_samplers:
        Number of independent samplers ``s``; defaults to the same size rule
        as the without-replacement protocol.
    sample_constant:
        Leading constant of the default sampler count.
    seed:
        Seed for the per-site priority draws.
    keep_message_records:
        Retain a full message log (tests only).
    """

    def __init__(self, num_sites: int, epsilon: float,
                 num_samplers: Optional[int] = None, sample_constant: float = 1.0,
                 seed: SeedLike = None, keep_message_records: bool = False):
        super().__init__(num_sites, epsilon, keep_message_records=keep_message_records)
        self._init_sampling(num_samplers, sample_constant, seed)
