"""Centralized baselines: ship every row to the coordinator.

Both baselines of Section 6.2 send the entire stream to the coordinator (one
vector message per row, i.e. ``N`` messages total) and differ only in what the
coordinator does with the rows:

* :class:`CentralizedSVDBaseline` stores everything and answers queries with
  the exact matrix (or its best rank-``k`` approximation) — the ``SVD`` row of
  Table 1.  It is optimal but not a streaming algorithm.
* :class:`CentralizedFDBaseline` feeds the rows into a single Frequent
  Directions sketch — the ``FD`` row of Table 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sketch.exact import ExactMatrix
from ..sketch.frequent_directions import FrequentDirections
from ..utils.validation import check_positive_int
from .base import MatrixTrackingProtocol

__all__ = ["CentralizedSVDBaseline", "CentralizedFDBaseline"]


class CentralizedSVDBaseline(MatrixTrackingProtocol):
    """Send all rows to the coordinator and keep them exactly.

    Parameters
    ----------
    num_sites, dimension:
        As in :class:`MatrixTrackingProtocol`.
    rank:
        If given, :meth:`sketch_matrix` returns the best rank-``rank``
        approximation (the paper's ``SVD`` baseline with ``k=30`` / ``k=50``);
        otherwise the exact matrix is returned.
    """

    def __init__(self, num_sites: int, dimension: int, rank: Optional[int] = None,
                 keep_message_records: bool = False):
        super().__init__(num_sites, dimension, epsilon=1.0,
                         keep_message_records=keep_message_records)
        self._rank = check_positive_int(rank, name="rank") if rank is not None else None
        self._store = ExactMatrix(dimension, keep_rows=True)

    STATE = {"store": "_store"}

    @property
    def rank(self) -> Optional[int]:
        """Target rank ``k`` of the reported approximation (None = exact)."""
        return self._rank

    def process(self, site: int, row: np.ndarray) -> None:
        row = self._record_observation(row)
        self.network.send_vector(site, description="raw row")
        self._store.update(row)

    def process_batch(self, site: int, rows: np.ndarray) -> None:
        """Forward a site batch in one transmission of ``n`` message units."""
        rows = self._record_observations(rows)
        if rows.shape[0] == 0:
            return
        self.network.send_vector(site, units=int(rows.shape[0]),
                                 description="raw row batch")
        self._store.append_batch(rows)

    def sketch_matrix(self) -> np.ndarray:
        if self._rank is None:
            return self._store.matrix()
        if self._store.rows_seen == 0:
            return np.zeros((0, self.dimension))
        return self._store.best_rank_k(self._rank)

    def estimated_squared_frobenius(self) -> float:
        return self._store.squared_frobenius

    def covariance_error_bound(self) -> Optional[float]:
        """Exact storage is error-free; rank-``k`` truncation loses σ²_{k+1}."""
        if self._rank is None or self._store.rows_seen == 0:
            return 0.0
        values = self._store.top_singular_values(self._rank + 1)
        if values.shape[0] <= self._rank:
            return 0.0
        return float(values[self._rank] ** 2)


class CentralizedFDBaseline(MatrixTrackingProtocol):
    """Send all rows to the coordinator and sketch them with Frequent Directions.

    Parameters
    ----------
    num_sites, dimension:
        As in :class:`MatrixTrackingProtocol`.
    sketch_size:
        Number of rows ``ℓ`` retained by the coordinator's FD sketch; defaults
        to the rank used in Table 1 style comparisons (``ℓ = 2k`` is a common
        choice, but the paper simply runs FD, so the exact size is up to the
        caller).
    """

    def __init__(self, num_sites: int, dimension: int, sketch_size: int,
                 svd_mode: str = "auto",
                 keep_message_records: bool = False):
        super().__init__(num_sites, dimension, epsilon=1.0,
                         keep_message_records=keep_message_records)
        self._sketch = FrequentDirections(
            dimension=dimension, sketch_size=sketch_size, svd_mode=svd_mode,
            buffer_multiplier=2 if svd_mode == "exact" else 4,
        )

    STATE = {"sketch": "_sketch"}

    @property
    def sketch_size(self) -> int:
        """Number of retained FD directions."""
        return self._sketch.sketch_size

    @property
    def svd_mode(self) -> str:
        """Compaction kernel of the coordinator FD sketch."""
        return self._sketch.svd_mode

    def process(self, site: int, row: np.ndarray) -> None:
        row = self._record_observation(row)
        self.network.send_vector(site, description="raw row")
        self._sketch.update(row)

    def process_batch(self, site: int, rows: np.ndarray) -> None:
        """Forward a site batch in one transmission of ``n`` message units."""
        rows = self._record_observations(rows)
        if rows.shape[0] == 0:
            return
        self.network.send_vector(site, units=int(rows.shape[0]),
                                 description="raw row batch")
        self._sketch.append_batch(rows)

    def sketch_matrix(self) -> np.ndarray:
        # compacted_view: queries are read-only (see protocol P1).
        return self._sketch.compacted_view()

    def estimated_squared_frobenius(self) -> float:
        return self._sketch.squared_frobenius

    def covariance_error_bound(self) -> Optional[float]:
        """Frequent Directions' deterministic bound ``2·‖A‖²_F / ℓ``."""
        return self._sketch.error_bound()
