"""Abstract interfaces for single-stream summaries.

Two families of summaries are used by the paper:

* :class:`FrequencySketch` — summarises a stream of ``(element, weight)``
  pairs and answers weighted-frequency queries.  Implementations include the
  weighted Misra–Gries summary, weighted SpaceSaving, Count–Min and the exact
  counter baseline.
* :class:`MatrixSketch` — summarises a stream of matrix rows ``a_i ∈ R^d`` and
  maintains a small matrix ``B`` approximating the covariance of the stream.
  Implementations include Frequent Directions and the exact-covariance
  baseline.

Both interfaces expose ``merge`` because the distributed protocol P1 relies on
the mergeability of the underlying summaries (Agarwal et al., "Mergeable
summaries", PODS 2012).
"""

from __future__ import annotations

import abc
from typing import (Any, Dict, Generic, Hashable, Iterable, List, Optional,
                    Sequence, Tuple, TypeVar)

import numpy as np

from ..utils.declared import Declared

__all__ = ["FrequencySketch", "MatrixSketch", "aggregate_weighted_batch",
           "batch_key", "counter_columns", "counter_dict"]

Element = TypeVar("Element", bound=Hashable)


def batch_key(element: Hashable) -> Hashable:
    """``element`` as :func:`aggregate_weighted_batch` keys it (a NumPy
    scalar becomes the Python value ``tolist`` gives), so a per-item path
    beside it stores the same key types and writes the same checkpoints."""
    return element.item() if isinstance(element, np.generic) else element


_INT64_KEYS = frozenset({np.int64})


def counter_columns(counters: Dict[Hashable, Any]) -> Dict[str, Any]:
    """An element-keyed map of floats as checkpoint columns, in map order.

    ``keys`` is an ``int64`` array when every key is an ``np.int64`` (the
    labels the batch kernels key by), else the list of keys, each of its
    own type; ``values`` is a ``float64`` array.  :func:`counter_dict`
    inverts it with the same key types.
    """
    if counters and _INT64_KEYS.issuperset(map(type, counters)):
        keys: Any = np.fromiter(counters, dtype=np.int64, count=len(counters))
    else:
        keys = list(counters)
    return {"keys": keys,
            "values": np.fromiter(counters.values(), dtype=np.float64,
                                  count=len(counters))}


def counter_dict(columns: Dict[str, Any]) -> Dict[Hashable, float]:
    """The map :func:`counter_columns` wrote, built in one pass."""
    keys = columns["keys"]
    return dict(zip(list(keys) if isinstance(keys, np.ndarray) else keys,
                    columns["values"].tolist()))


def aggregate_weighted_batch(
    elements: Sequence, weights: np.ndarray
) -> Tuple[List, List[float]]:
    """Collapse a weighted batch into ``(unique elements, summed weights)``.

    The workhorse of the batched ingestion path: a Zipfian chunk of thousands
    of items typically contains only a few dozen distinct elements, so
    summaries can apply one aggregated update per distinct element instead of
    one dictionary operation per item.  Uses ``np.unique`` when the elements
    form a sortable homogeneous array and falls back to a dictionary sweep for
    object/mixed element types.  Within each element, weights are summed in
    arrival order.
    """
    # For small batches a plain dictionary sweep beats np.unique (whose fixed
    # overhead dominates below roughly a hundred items).
    if len(elements) >= 128:
        array: Optional[np.ndarray] = None
        if isinstance(elements, np.ndarray):
            array = elements
        else:
            try:
                candidate = np.asarray(elements)
            except (ValueError, TypeError):  # ragged / unconvertible element types
                candidate = None
            if candidate is not None and candidate.ndim == 1:
                array = candidate
        if array is not None and array.ndim == 1 and array.dtype != object:
            uniques, inverse = np.unique(array, return_inverse=True)
            totals = np.zeros(uniques.shape[0], dtype=np.float64)
            np.add.at(totals, inverse, weights)
            return uniques.tolist(), totals.tolist()
    if isinstance(elements, np.ndarray):
        elements = elements.tolist()
    if isinstance(weights, np.ndarray):
        weights = weights.tolist()
    grouped: Dict = {}
    for element, weight in zip(elements, weights):
        grouped[element] = grouped.get(element, 0.0) + weight
    return list(grouped.keys()), list(grouped.values())


class FrequencySketch(Declared, abc.ABC, Generic[Element]):
    """Summary of a weighted item stream supporting frequency estimation."""

    @abc.abstractmethod
    def update(self, element: Element, weight: float = 1.0) -> None:
        """Process one stream item with the given (positive) weight."""

    @abc.abstractmethod
    def estimate(self, element: Element) -> float:
        """Return an estimate of the total weight of ``element`` seen so far."""

    @property
    @abc.abstractmethod
    def total_weight(self) -> float:
        """Total weight of all items processed by this summary."""

    @abc.abstractmethod
    def to_dict(self) -> Dict[Element, float]:
        """Return the retained (element -> estimated weight) map."""

    def update_many(self, items: Iterable[Tuple[Element, float]]) -> None:
        """Process an iterable of ``(element, weight)`` pairs."""
        for element, weight in items:
            self.update(element, weight)

    def update_batch(self, elements: Sequence[Element],
                     weights: Optional[Sequence[float]] = None) -> None:
        """Process a batch of elements with per-item ``weights`` (default 1).

        The default implementation loops over :meth:`update`, so every
        summary supports the batch API; concrete sketches override it with
        vectorized kernels.  Overrides may aggregate duplicate elements
        before updating — the summary's error guarantee is preserved, but the
        retained state need not be bit-identical to item-at-a-time ingestion
        (see each sketch's ``update_batch`` docstring for its exact
        semantics).
        """
        if weights is None:
            for element in elements:
                self.update(element)
        else:
            for element, weight in zip(elements, weights):
                self.update(element, float(weight))

    def heavy_hitters(self, phi: float) -> List[Tuple[Element, float]]:
        """Return retained elements whose estimated weight is at least ``phi * W``.

        ``W`` is the total weight processed by this summary.  The result is
        sorted by decreasing estimated weight.
        """
        if not 0.0 < phi <= 1.0:
            raise ValueError(f"phi must lie in (0, 1], got {phi!r}")
        threshold = phi * self.total_weight
        found = [(element, weight) for element, weight in self.to_dict().items()
                 if weight >= threshold]
        found.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        return found

    def __len__(self) -> int:
        return len(self.to_dict())


class MatrixSketch(Declared, abc.ABC):
    """Summary of a stream of rows supporting covariance approximation."""

    @abc.abstractmethod
    def update(self, row: np.ndarray) -> None:
        """Process one row of the streaming matrix."""

    @abc.abstractmethod
    def sketch_matrix(self) -> np.ndarray:
        """Return the current sketch ``B`` as a 2-d array with ``d`` columns."""

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Number of columns ``d`` of the sketched matrix."""

    @property
    @abc.abstractmethod
    def squared_frobenius(self) -> float:
        """Exact squared Frobenius norm of all rows processed so far."""

    def update_many(self, rows: Iterable[np.ndarray]) -> None:
        """Process an iterable of rows in order."""
        for row in rows:
            self.update(row)

    def append_batch(self, rows: np.ndarray) -> None:
        """Process a block of rows (2-d array, one row per stream item).

        The default implementation loops over :meth:`update`; concrete
        sketches override it with block kernels (e.g. Frequent Directions
        copies whole slices into its buffer with one compaction per fill).
        Overrides must be equivalent to processing the rows one at a time in
        order.
        """
        for row in np.asarray(rows, dtype=np.float64):
            self.update(row)

    def covariance(self) -> np.ndarray:
        """Return ``BᵀB`` for the current sketch ``B``."""
        sketch = self.sketch_matrix()
        if sketch.size == 0:
            return np.zeros((self.dimension, self.dimension))
        return sketch.T @ sketch

    def squared_norm_along(self, x: np.ndarray) -> float:
        """Return ``‖Bx‖²`` for the current sketch ``B`` and direction ``x``."""
        sketch = self.sketch_matrix()
        if sketch.size == 0:
            return 0.0
        product = sketch @ np.asarray(x, dtype=np.float64)
        return float(np.dot(product, product))
