"""Matrix protocol P3: squared-norm priority sampling (Section 5.3).

The paper defines matrix P3/P3wr as the weighted heavy-hitters protocols
P3/P3wr run on item weight ``w_i = ‖a_i‖²``, and that is how they are built:
the sampling itself is :mod:`repro.streaming.priority_sampling`, shared with
the heavy-hitter family.  This module adapts it to rows: a row is a
candidate of weight ``‖a‖²`` (zero-norm rows are transparent — no priority
draw, no state change), the payload kept is a copy of the row, and the
adjusted sample is read out as an approximation matrix ``B`` by rescaling
each retained row so its squared norm equals its adjusted weight:

* without replacement, rows whose squared norm is at least the smallest
  retained priority ``ρ̂`` are stacked as-is (they were retained
  deterministically), every other retained row is rescaled to squared norm
  ``ρ̂``, and the single lowest-priority row (it defines ``ρ̂``) is dropped;
* with replacement, each sampler's retained row is rescaled to squared norm
  ``F̂/s`` — the classical row-sampling estimator of Drineas et al., as
  described in Section 4.3.1 / Table 1's ``P3wr`` row.

With sample size ``s = Θ((1/ε²)·log(1/ε))`` this yields
``|‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F`` with large probability using
``O((m + s)·log(βN/s))`` messages (Theorem 5).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..streaming.priority_sampling import (
    WithoutReplacementSampling,
    WithReplacementSampling,
)
from ..utils.rng import SeedLike
from .base import MatrixTrackingProtocol

__all__ = ["MatrixPrioritySamplingProtocol", "WithReplacementMatrixSamplingProtocol"]


class _RowSampling(MatrixTrackingProtocol):
    """Feeds rows to a sampling coordinator at weight ``‖a‖²``; reads it as ``B``."""

    def _sample_description(self, payload: np.ndarray) -> str:
        return "sampled row"

    def process(self, site: int, row: np.ndarray) -> None:
        row = self._record_observation(row)
        weight = float(np.dot(row, row))
        if weight > 0.0:
            self._sample_item(site, row, weight)

    def process_batch(self, site: int, rows: np.ndarray) -> None:
        """Vectorized site-batch ingestion: one block priority draw over the
        non-zero rows, message-identical to per-item ingestion under the
        same seed."""
        rows = self._record_observations(rows)
        norms = np.einsum("ij,ij->i", rows, rows)
        candidates = np.nonzero(norms > 0.0)[0]
        self._sample_batch(site, norms[candidates],
                           lambda index: rows[candidates[index]].copy())

    def sketch_matrix(self) -> np.ndarray:
        sample = self._adjusted_sample()
        if not sample:
            return np.zeros((0, self.dimension))
        return np.vstack([
            row if adjusted == weight else row * np.sqrt(adjusted / weight)
            for row, weight, adjusted in sample
        ])

    def estimated_squared_frobenius(self) -> float:
        return self._estimated_total()


class MatrixPrioritySamplingProtocol(WithoutReplacementSampling, _RowSampling):
    """Matrix tracking protocol P3 (priority sampling without replacement).

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    dimension:
        Number of columns ``d``.
    epsilon:
        Target error ``ε`` relative to ``‖A‖²_F``.
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

    def __init__(self, num_sites: int, dimension: int, epsilon: float,
                 sample_size: Optional[int] = None, sample_constant: float = 1.0,
                 seed: SeedLike = None, keep_message_records: bool = False):
        super().__init__(num_sites, dimension, epsilon,
                         keep_message_records=keep_message_records)
        self._init_sampling(sample_size, sample_constant, seed)


class WithReplacementMatrixSamplingProtocol(WithReplacementSampling, _RowSampling):
    """Matrix tracking protocol P3wr (``s`` independent row samplers).

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    dimension:
        Number of columns ``d``.
    epsilon:
        Target error ``ε`` relative to ``‖A‖²_F``.
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

    def __init__(self, num_sites: int, dimension: int, epsilon: float,
                 num_samplers: Optional[int] = None, sample_constant: float = 1.0,
                 seed: SeedLike = None, keep_message_records: bool = False):
        super().__init__(num_sites, dimension, epsilon,
                         keep_message_records=keep_message_records)
        self._init_sampling(num_samplers, sample_constant, seed)
