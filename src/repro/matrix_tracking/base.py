"""Interface for distributed matrix-tracking protocols (Section 5).

A matrix-tracking protocol coordinates ``m`` sites that each observe rows of a
global matrix ``A ∈ R^{n×d}``.  At any time the coordinator must hold a small
matrix ``B`` such that for every unit vector ``x``

```
| ‖Ax‖² − ‖Bx‖² | ≤ ε·‖A‖²_F ,
```

equivalently ``‖AᵀA − BᵀB‖₂ ≤ ε·‖A‖²_F``.

For evaluation convenience the base class also maintains the *exact*
covariance ``AᵀA`` and squared Frobenius norm of everything it has observed —
these are ground-truth quantities that the protocol's decisions never consult,
but they make the paper's ``err`` metric computable at any instant without
retaining the full stream.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from ..streaming.protocol import DistributedProtocol
from ..utils.linalg import spectral_norm
from ..utils.validation import (
    check_epsilon,
    check_positive_int,
    check_row,
    check_row_batch,
)

__all__ = ["MatrixTrackingProtocol"]


class MatrixTrackingProtocol(DistributedProtocol):
    """Base class for the distributed matrix-tracking protocols P1–P4.

    Parameters
    ----------
    num_sites:
        Number of distributed sites ``m``.
    dimension:
        Number of columns ``d`` of the tracked matrix.
    epsilon:
        Approximation parameter ``ε``.
    keep_message_records:
        Retain the full per-message log (tests only).
    """

    def __init__(self, num_sites: int, dimension: int, epsilon: float,
                 keep_message_records: bool = False):
        super().__init__(num_sites, keep_message_records=keep_message_records)
        self._dimension = check_positive_int(dimension, name="dimension")
        self._epsilon = check_epsilon(epsilon)
        self._observed_covariance = np.zeros((self._dimension, self._dimension))
        self._observed_squared_frobenius = 0.0

    # ------------------------------------------------------------ properties
    @property
    def dimension(self) -> int:
        """Number of columns ``d``."""
        return self._dimension

    @property
    def epsilon(self) -> float:
        """The approximation parameter ``ε``."""
        return self._epsilon

    @property
    def observed_squared_frobenius(self) -> float:
        """Exact ``‖A‖²_F`` of all rows observed so far (ground truth)."""
        return self._observed_squared_frobenius

    def observed_covariance(self) -> np.ndarray:
        """Exact covariance ``AᵀA`` of all rows observed so far (ground truth)."""
        return self._observed_covariance.copy()

    def _record_observation(self, row: np.ndarray) -> np.ndarray:
        """Validate a row, update ground-truth accumulators and item count."""
        row = check_row(row, self._dimension, name="row")
        self._observed_covariance += np.outer(row, row)
        self._observed_squared_frobenius += float(np.dot(row, row))
        self._count_item()
        return row

    def _record_observations(self, rows: np.ndarray) -> np.ndarray:
        """Batch analogue of :meth:`_record_observation`.

        Validates a whole row block at once and updates the ground-truth
        covariance with a single BLAS product (equal to the per-row outer
        products up to floating-point summation order).
        """
        rows = check_row_batch(rows, self._dimension, name="rows")
        if rows.shape[0] == 0:
            return rows
        self._observed_covariance += rows.T @ rows
        self._observed_squared_frobenius += float(np.einsum("ij,ij->", rows, rows))
        self._count_items(rows.shape[0])
        return rows

    # ----------------------------------------------------------- protocol API
    @abc.abstractmethod
    def process(self, site: int, row: np.ndarray) -> None:
        """Handle the arrival of one matrix row at ``site``."""

    @abc.abstractmethod
    def sketch_matrix(self) -> np.ndarray:
        """Return the coordinator's current approximation ``B`` (rows × d)."""

    @abc.abstractmethod
    def estimated_squared_frobenius(self) -> float:
        """The coordinator's estimate of ``‖A‖²_F`` (``F̂`` in the paper)."""

    # ---------------------------------------------------------------- queries
    def _sketch_view(self) -> np.ndarray:
        """``B`` to read once: callers may neither mutate nor keep it.

        The queries below and the ``sketch_rows`` count read it; protocols
        that hold ``B`` as a buffer return a view, saving the copy
        :meth:`sketch_matrix` makes.
        """
        return self.sketch_matrix()

    def covariance(self) -> np.ndarray:
        """Return ``BᵀB`` for the current approximation ``B``."""
        sketch = self._sketch_view()
        if sketch.size == 0:
            return np.zeros((self._dimension, self._dimension))
        return sketch.T @ sketch

    def squared_norm_along(self, x: np.ndarray) -> float:
        """Return ``‖Bx‖²`` for a direction ``x``."""
        sketch = self._sketch_view()
        if sketch.size == 0:
            return 0.0
        product = sketch @ np.asarray(x, dtype=np.float64)
        return float(np.dot(product, product))

    def covariance_error_bound(self) -> Optional[float]:
        """Additive bound on ``‖AᵀA − BᵀB‖₂`` at this instant, or ``None``.

        The distributed protocols guarantee ``ε·‖A‖²_F`` and report it using
        the coordinator's estimate ``F̂``; subclasses with tighter (the
        centralized baselines) or absent (the Appendix-C P4) guarantees
        override this.  The ``repro.api`` query layer surfaces the value as
        ``Answer.error_bound``.
        """
        return self._epsilon * self.estimated_squared_frobenius()

    def approximation_error(self) -> float:
        """The paper's ``err`` metric ``‖AᵀA − BᵀB‖₂ / ‖A‖²_F`` right now."""
        if self._observed_squared_frobenius <= 0.0:
            return 0.0
        difference = self._observed_covariance - self.covariance()
        return spectral_norm(difference) / self._observed_squared_frobenius

    def message_counts(self) -> Dict[str, int]:
        counts = super().message_counts()
        counts["sketch_rows"] = int(self._sketch_view().shape[0])
        return counts
