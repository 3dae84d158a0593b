"""Exact (non-sketching) baselines.

These mirror the "send everything to the coordinator" baselines of Section 6:

* :class:`ExactFrequencyCounter` keeps one counter per distinct element and
  therefore answers every weighted-frequency query exactly.
* :class:`ExactMatrix` stores every row (and, incrementally, the covariance
  ``AᵀA``) and can answer ``‖Ax‖²`` exactly or return the best rank-``k``
  approximation via a full SVD.

They are used as the ground truth in the evaluation layer and as the ``SVD``
row of Table 1.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, Hashable, List, Optional, Sequence, TypeVar

import numpy as np

from ..utils.linalg import thin_svd
from ..utils.validation import (
    check_positive_int,
    check_row,
    check_row_batch,
    check_weight,
    check_weight_batch,
)
from .base import (
    FrequencySketch,
    MatrixSketch,
    aggregate_weighted_batch,
    counter_columns,
    counter_dict,
)

__all__ = ["ExactFrequencyCounter", "ExactMatrix"]

Element = TypeVar("Element", bound=Hashable)


class ExactFrequencyCounter(FrequencySketch[Element], Generic[Element]):
    """Exact weighted frequency counter (one counter per distinct element)."""

    def __init__(self) -> None:
        self._counts: Dict[Element, float] = {}
        self._total_weight = 0.0

    @property
    def total_weight(self) -> float:
        return self._total_weight

    def update(self, element: Element, weight: float = 1.0) -> None:
        weight = check_weight(weight, name="weight")
        self._counts[element] = self._counts.get(element, 0.0) + weight
        self._total_weight += weight

    def update_batch(self, elements: Sequence[Element],
                     weights: Optional[Sequence[float]] = None) -> None:
        """Add a batch of items, aggregating duplicates first.

        Exact counting is order- and grouping-oblivious, so this matches
        repeated :meth:`update` up to floating-point summation order.
        """
        weights = check_weight_batch(weights, count=len(elements))
        if len(elements) == 0:
            return
        uniques, totals = aggregate_weighted_batch(elements, weights)
        for element, total in zip(uniques, totals):
            self._counts[element] = self._counts.get(element, 0.0) + total
        self._total_weight += float(weights.sum())

    def estimate(self, element: Element) -> float:
        return self._counts.get(element, 0.0)

    def to_dict(self) -> Dict[Element, float]:
        return dict(self._counts)

    def merge(self, other: "ExactFrequencyCounter[Element]") -> "ExactFrequencyCounter[Element]":
        """Merge two exact counters (simply add the maps)."""
        if not isinstance(other, ExactFrequencyCounter):
            raise TypeError("can only merge with another ExactFrequencyCounter")
        merged = ExactFrequencyCounter[Element]()
        merged._counts = dict(self._counts)
        for element, weight in other._counts.items():
            merged._counts[element] = merged._counts.get(element, 0.0) + weight
        merged._total_weight = self._total_weight + other._total_weight
        return merged

    STATE = {"total_weight": "_total_weight"}

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(), "counts": counter_columns(self._counts)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._counts = counter_dict(state["counts"])

    def __repr__(self) -> str:
        return (
            f"ExactFrequencyCounter(distinct={len(self._counts)}, "
            f"total_weight={self._total_weight:.4g})"
        )


class ExactMatrix(MatrixSketch):
    """Stores every row of the streamed matrix; answers all queries exactly.

    Parameters
    ----------
    dimension:
        Number of columns of the streamed matrix.
    keep_rows:
        If False, only the covariance ``AᵀA`` and squared Frobenius norm are
        maintained (sufficient for all ``‖Ax‖²`` queries) and
        :meth:`sketch_matrix` returns a square-root factor of the covariance
        instead of the raw rows.
    """

    def __init__(self, dimension: int, keep_rows: bool = True):
        self._dimension = check_positive_int(dimension, name="dimension")
        self._keep_rows = bool(keep_rows)
        self._rows: List[np.ndarray] = []
        self._covariance = np.zeros((self._dimension, self._dimension), dtype=np.float64)
        self._squared_frobenius = 0.0
        self._rows_seen = 0

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def rows_seen(self) -> int:
        """Number of rows processed."""
        return self._rows_seen

    @property
    def squared_frobenius(self) -> float:
        return self._squared_frobenius

    def update(self, row: np.ndarray) -> None:
        row = check_row(row, self._dimension, name="row")
        if self._keep_rows:
            self._rows.append(row)
        self._covariance += np.outer(row, row)
        self._squared_frobenius += float(np.dot(row, row))
        self._rows_seen += 1

    def append_batch(self, rows: np.ndarray) -> None:
        """Add a block of rows with one BLAS covariance update.

        Matches repeated :meth:`update` up to floating-point summation order
        (the covariance accumulates ``rowsᵀ·rows`` per block instead of one
        outer product per row).
        """
        rows = check_row_batch(rows, self._dimension, name="rows")
        if rows.shape[0] == 0:
            return
        if self._keep_rows:
            self._rows.extend(rows)
        self._covariance += rows.T @ rows
        self._squared_frobenius += float(np.einsum("ij,ij->", rows, rows))
        self._rows_seen += rows.shape[0]

    def matrix(self) -> np.ndarray:
        """Return the full stored matrix (requires ``keep_rows=True``)."""
        if not self._keep_rows:
            raise RuntimeError("rows were not retained (keep_rows=False)")
        if not self._rows:
            return np.zeros((0, self._dimension))
        return np.vstack(self._rows)

    def covariance(self) -> np.ndarray:
        return self._covariance.copy()

    def sketch_matrix(self) -> np.ndarray:
        if self._keep_rows:
            return self.matrix()
        # Return a factor R with RᵀR = AᵀA (exact for norm queries).
        eigenvalues, eigenvectors = np.linalg.eigh(self._covariance)
        eigenvalues = np.maximum(eigenvalues, 0.0)
        return (np.sqrt(eigenvalues)[:, np.newaxis] * eigenvectors.T)

    def squared_norm_along(self, x: np.ndarray) -> float:
        vector = np.asarray(x, dtype=np.float64)
        return float(vector @ self._covariance @ vector)

    def best_rank_k(self, k: int) -> np.ndarray:
        """Return the best rank-``k`` approximation of the stored matrix."""
        rank = check_positive_int(k, name="k")
        matrix = self.matrix()
        if matrix.size == 0:
            return matrix
        u, s, vt = thin_svd(matrix)
        rank = min(rank, s.shape[0])
        return (u[:, :rank] * s[:rank]) @ vt[:rank, :]

    def top_singular_values(self, k: Optional[int] = None) -> np.ndarray:
        """Return the (top ``k``) singular values of the stored covariance."""
        eigenvalues = np.linalg.eigvalsh(self._covariance)[::-1]
        singular_values = np.sqrt(np.maximum(eigenvalues, 0.0))
        if k is None:
            return singular_values
        return singular_values[:k]

    STATE = {"covariance": "_covariance", "rows_seen": "_rows_seen",
             "squared_frobenius": "_squared_frobenius"}

    def state_dict(self) -> Dict[str, Any]:
        """Also the stored rows, as one ``(n, d)`` array."""
        return {**super().state_dict(), "rows": np.array(self._rows).reshape(
            len(self._rows), self._dimension)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._rows = list(state["rows"])

    def __repr__(self) -> str:
        return (
            f"ExactMatrix(dimension={self._dimension}, rows_seen={self._rows_seen}, "
            f"keep_rows={self._keep_rows})"
        )
