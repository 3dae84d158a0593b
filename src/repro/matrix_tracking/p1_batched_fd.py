"""Matrix protocol P1: batched Frequent Directions (Section 5.1, Algs. 5.1/5.2).

Each site runs a Frequent Directions sketch with error parameter ``ε' = ε/2``
over its local rows and tracks ``F_i``, the squared Frobenius norm received
since its last communication.  When ``F_i`` reaches the threshold
``τ = (ε/2m)·F̂`` — with ``F̂`` the coordinator's global estimate of
``‖A‖²_F`` — the site ships its sketch (every retained row counts as one
vector message) plus the scalar ``F_i`` and resets.  The coordinator merges
incoming sketches into its own FD sketch (mergeability keeps the error bound)
and re-broadcasts ``F̂`` whenever its tracked total grows by more than a
``(1 + ε/2)`` factor.

Guarantee: error at most ``ε·‖A‖²_F`` at all times with
``O((m/ε²)·log(βN))`` total rows of communication.  As the paper's
experiments show (Table 1), in practice the per-site batches rarely compress,
so P1's message count is comparable to sending everything — its strength is
accuracy, not communication.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..sketch.frequent_directions import FrequentDirections
from ..streaming.weight_rounds import FlushRounds
from ..utils.declared import Declared
from ..utils.validation import check_positive_int
from .base import MatrixTrackingProtocol

__all__ = ["BatchedFrequentDirectionsProtocol"]


#: Rows an FD sketch of the matrix protocols buffers, as a multiple of its
#: size ``ℓ``.  On the small sketches the protocols run, compaction cost is
#: dominated by fixed LAPACK call latency, so a ``4ℓ`` buffer (half the
#: compactions of the ``2ℓ`` doubling buffer, at unchanged asymptotics — the
#: FD invariant holds for any buffer size) buys most of the measured speed.
FD_BUFFER_MULTIPLIER = 4


class _SiteState(Declared):
    """Per-site state: the local FD sketch and unreported squared norm."""

    STATE = {"sketch": "sketch", "weight_since_send": "weight_since_send"}

    def __init__(self, dimension: int, sketch_size: int):
        self.sketch = FrequentDirections(
            dimension=dimension, sketch_size=sketch_size,
            buffer_multiplier=FD_BUFFER_MULTIPLIER,
        )
        self.weight_since_send = 0.0  # F_i: squared norm since the last flush


class BatchedFrequentDirectionsProtocol(FlushRounds, MatrixTrackingProtocol):
    """Matrix tracking protocol P1 (batched Frequent Directions).

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    dimension:
        Number of columns ``d``.
    epsilon:
        Target error ``ε`` relative to ``‖A‖²_F``.
    sketch_size:
        FD sketch size per site; defaults to ``ceil(2/ε')`` with ``ε' = ε/2``.
    coordinator_sketch_size:
        FD sketch size at the coordinator; defaults to the same value.
    keep_message_records:
        Retain a full message log (tests only).
    """

    def __init__(self, num_sites: int, dimension: int, epsilon: float,
                 sketch_size: Optional[int] = None,
                 coordinator_sketch_size: Optional[int] = None,
                 keep_message_records: bool = False):
        super().__init__(num_sites, dimension, epsilon,
                         keep_message_records=keep_message_records)
        if sketch_size is None:
            sketch_size = max(1, math.ceil(4.0 / self.epsilon))
        self._sketch_size = check_positive_int(sketch_size, name="sketch_size")
        if coordinator_sketch_size is None:
            coordinator_sketch_size = self._sketch_size
        self._coordinator_sketch_size = check_positive_int(
            coordinator_sketch_size, name="coordinator_sketch_size"
        )
        self._sites: List[_SiteState] = [
            _SiteState(dimension, self._sketch_size) for _ in range(num_sites)
        ]
        self._coordinator_sketch = FrequentDirections(
            dimension=dimension, sketch_size=self._coordinator_sketch_size,
            buffer_multiplier=FD_BUFFER_MULTIPLIER,
        )
        self._init_rounds()

    STATE = {"coordinator_sketch": "_coordinator_sketch"}

    def _repr_params(self):
        params = super()._repr_params()
        params["sketch_size"] = self._sketch_size
        return params

    # ------------------------------------------------------------ properties
    @property
    def sketch_size(self) -> int:
        """FD sketch size used by each site."""
        return self._sketch_size

    # ---------------------------------------------------------------- site side
    def process(self, site: int, row: np.ndarray) -> None:
        row = self._record_observation(row)
        self._sites[site].sketch.update(row)
        self._credit_site(site, float(np.dot(row, row)))

    def process_batch(self, site: int, rows: np.ndarray) -> None:
        """Vectorized site-batch ingestion.

        The batch is cut at its flushes (:meth:`_flush_segments`, over the
        squared row norms); each segment is block-appended to the site's FD
        sketch (bit-identical to per-row appends) before the site flushes.
        """
        rows = self._record_observations(rows)
        sketch = self._sites[site].sketch
        norms = np.einsum("ij,ij->i", rows, rows)
        for start, stop, _, flushes in self._flush_segments(site, norms):
            sketch.append_batch(rows[start:stop])
            if flushes:
                self._flush_site(site)

    def _flush_site(self, site: int) -> None:
        """Ship the site's sketch rows and accumulated squared norm."""
        state = self._sites[site]
        sketch_rows = state.sketch.compacted_matrix()
        row_count = max(1, sketch_rows.shape[0])
        self.network.send_vector(site, units=row_count, description="FD sketch rows")
        self.network.send_scalar(site, description="site squared norm")
        self._coordinator_sketch.append_batch(sketch_rows)
        self._receive_weight(state.weight_since_send)
        state.sketch.reset()
        state.weight_since_send = 0.0

    # ---------------------------------------------------------------- queries
    def sketch_matrix(self) -> np.ndarray:
        # compacted_view: answering a query must not perturb the coordinator
        # sketch's compaction schedule (queries are read-only).
        return self._coordinator_sketch.compacted_view()

    def estimated_squared_frobenius(self) -> float:
        return self._coordinator_weight
