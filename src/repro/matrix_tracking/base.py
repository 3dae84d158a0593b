"""Interface for distributed matrix-tracking protocols (Section 5).

A matrix-tracking protocol coordinates ``m`` sites that each observe rows of a
global matrix ``A ∈ R^{n×d}``.  At any time the coordinator must hold a small
matrix ``B`` such that for every unit vector ``x``

```
| ‖Ax‖² − ‖Bx‖² | ≤ ε·‖A‖²_F ,
```

equivalently ``‖AᵀA − BᵀB‖₂ ≤ ε·‖A‖²_F``.

No party holds ``A``: the sites see their own rows and the coordinator holds
``B``.  Whoever needs the true ``err`` holds the stream and computes it
(:func:`repro.utils.linalg.covariance_error`); a protocol whose own state
proves the missing mass exactly reports it through :meth:`missing_mass`.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

import numpy as np

from ..streaming.protocol import DistributedProtocol
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

    # ------------------------------------------------------------ properties
    @property
    def dimension(self) -> int:
        """Number of columns ``d``."""
        return self._dimension

    @property
    def epsilon(self) -> float:
        """The approximation parameter ``ε``."""
        return self._epsilon

    def _record_observation(self, row: np.ndarray) -> np.ndarray:
        """Validate a row and count it."""
        row = check_row(row, self._dimension, name="row")
        self._count_item()
        return row

    def _record_observations(self, rows: np.ndarray) -> np.ndarray:
        """Batch analogue of :meth:`_record_observation`."""
        rows = check_row_batch(rows, self._dimension, name="rows")
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

    def missing_mass(self) -> Optional[Tuple[np.ndarray, float]]:
        """``(AᵀA − BᵀB, ‖A‖²_F)`` as this protocol's own state proves them.

        ``None`` (the default) when the state does not determine both
        exactly.  The ``repro.api`` query layer serves the paper's ``err``
        from it as :class:`~repro.api.queries.ApproximationError`.
        """
        return None

    def message_counts(self) -> Dict[str, int]:
        counts = super().message_counts()
        counts["sketch_rows"] = int(self._sketch_view().shape[0])
        return counts
