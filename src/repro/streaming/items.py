"""Stream item types.

The distributed streaming model of the paper has two item flavours:

* weighted items ``(element, weight)`` for the heavy-hitters protocols of
  Section 4, represented by :class:`WeightedItem`;
* matrix rows ``a ∈ R^d`` for the matrix-tracking protocols of Section 5,
  represented by :class:`MatrixRow` whose implicit weight is ``‖a‖²``.

Both types also carry the index of the site at which they arrive once a
stream has been partitioned (see :mod:`repro.streaming.partition`).

For high-throughput ingestion the module also provides *columnar* batch
representations — :class:`WeightedItemBatch` (parallel element/weight arrays)
and :class:`MatrixRowBatch` (a 2-d row block) — which the streaming engine
slices zero-copy and feeds to ``DistributedProtocol.observe_batch`` without
materialising one Python object per item.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..utils.validation import (
    check_row,
    check_row_batch,
    check_site_column,
    check_site_type,
    check_weight,
    check_weight_batch,
)

__all__ = ["WeightedItem", "MatrixRow", "WeightedItemBatch", "MatrixRowBatch"]


@dataclass(frozen=True)
class WeightedItem:
    """A weighted stream element ``(element, weight)`` arriving at ``site``.

    Attributes
    ----------
    element:
        The element label (any hashable), an element of the universe ``[u]``.
    weight:
        Strictly positive weight ``w ∈ [1, β]`` in the paper's model.
    site:
        Index of the site observing the item, or ``None`` if unassigned.
    """

    element: Hashable
    weight: float = 1.0
    site: Optional[int] = None

    def __post_init__(self) -> None:
        check_weight(self.weight, name="weight")

    def at_site(self, site: int) -> "WeightedItem":
        """Return a copy of this item assigned to ``site``."""
        return WeightedItem(element=self.element, weight=self.weight, site=site)


@dataclass(frozen=True)
class MatrixRow:
    """A matrix row arriving at ``site``; its weight is the squared norm.

    Attributes
    ----------
    values:
        The row ``a ∈ R^d`` as a 1-d float array.
    site:
        Index of the site observing the row, or ``None`` if unassigned.
    """

    values: np.ndarray
    site: Optional[int] = None
    _weight: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        array = check_row(self.values, name="values")
        object.__setattr__(self, "values", array)
        object.__setattr__(self, "_weight", float(np.dot(array, array)))

    @property
    def weight(self) -> float:
        """The implicit weight ``‖a‖²`` of the row."""
        return self._weight

    @property
    def dimension(self) -> int:
        """Number of columns ``d``."""
        return int(self.values.shape[0])

    def at_site(self, site: int) -> "MatrixRow":
        """Return a copy of this row assigned to ``site``."""
        return MatrixRow(values=self.values, site=site)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixRow):
            return NotImplemented
        return self.site == other.site and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.site, self.values.tobytes()))


def _as_element_column(elements: Sequence) -> np.ndarray:
    """Coerce element labels to a 1-d array, falling back to object dtype.

    Tuples (or other sequence-valued labels) would otherwise be expanded into
    extra array dimensions by ``np.asarray``.
    """
    if isinstance(elements, np.ndarray) and elements.ndim == 1:
        return elements
    try:
        array = np.asarray(elements)
    except (ValueError, TypeError):
        array = None
    if array is not None and array.ndim == 1 and array.dtype.kind != "O":
        return array
    column = np.empty(len(elements), dtype=object)
    for index, element in enumerate(elements):
        column[index] = element
    return column


def _check_sites(sites: Optional[Sequence[int]], length: int) -> Optional[np.ndarray]:
    if sites is None:
        return None
    return check_site_column(sites, length, name="sites")


@dataclass(frozen=True)
class WeightedItemBatch:
    """A columnar batch of weighted stream items.

    Attributes
    ----------
    elements:
        1-d array of element labels (numeric dtype or ``object``).
    weights:
        1-d float array of strictly positive weights, aligned with
        ``elements``.
    sites:
        Optional 1-d int array of pre-assigned site indices; ``None`` when
        the partitioner decides at ingestion time.
    """

    elements: np.ndarray
    weights: np.ndarray
    sites: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        elements = _as_element_column(self.elements)
        weights = check_weight_batch(self.weights, count=len(elements))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sites", _check_sites(self.sites, len(elements)))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Hashable, float]],
                   sites: Optional[Sequence[int]] = None) -> "WeightedItemBatch":
        """Build a batch from ``(element, weight)`` pairs (e.g. a sample's items).

        A list is read in place, and the weights go straight into their
        array, so a long stream is not copied into temporary lists first.
        """
        pair_list = pairs if isinstance(pairs, list) else list(pairs)
        elements = _as_element_column([element for element, _ in pair_list])
        try:
            weights = np.fromiter((weight for _, weight in pair_list),
                                  dtype=np.float64, count=len(pair_list))
        except (TypeError, ValueError):
            # Let validation name the fault exactly as for any weight column.
            weights = [weight for _, weight in pair_list]
        return cls(elements=elements, weights=weights, sites=sites)

    @classmethod
    def from_items(cls, items: Iterable[WeightedItem]) -> "WeightedItemBatch":
        """Build a batch from :class:`WeightedItem` objects, keeping their sites."""
        item_list = list(items)
        elements = _as_element_column([item.element for item in item_list])
        weights = np.asarray([item.weight for item in item_list], dtype=np.float64)
        explicit = [item.site for item in item_list]
        sites = None
        if any(site is not None for site in explicit):
            if any(site is None for site in explicit):
                raise ValueError("cannot mix assigned and unassigned items in one batch")
            sites = np.array([check_site_type(site) for site in explicit],
                             dtype=np.int64)
        return cls(elements=elements, weights=weights, sites=sites)

    def __len__(self) -> int:
        return int(self.elements.shape[0])

    def __getitem__(self, key: Union[int, slice]) -> Union[WeightedItem, "WeightedItemBatch"]:
        if isinstance(key, slice):
            # Slices are views of already-validated columns; skip
            # __post_init__ so the engine's chunking stays zero-copy.
            view = object.__new__(WeightedItemBatch)
            object.__setattr__(view, "elements", self.elements[key])
            object.__setattr__(view, "weights", self.weights[key])
            object.__setattr__(view, "sites",
                               self.sites[key] if self.sites is not None else None)
            return view
        site = int(self.sites[key]) if self.sites is not None else None
        return WeightedItem(element=self.elements[key],
                            weight=float(self.weights[key]), site=site)

    def __iter__(self) -> Iterator[WeightedItem]:
        for index in range(len(self)):
            yield self[index]

    def take(self, indices: np.ndarray) -> "WeightedItemBatch":
        """Select rows by an integer index array (a copy, like NumPy take).

        Used by the cluster layer to split one batch into per-shard
        sub-batches; the columns are already validated, so ``__post_init__``
        is skipped exactly as in the slicing path.
        """
        view = object.__new__(WeightedItemBatch)
        object.__setattr__(view, "elements", self.elements[indices])
        object.__setattr__(view, "weights", self.weights[indices])
        object.__setattr__(view, "sites",
                           self.sites[indices] if self.sites is not None else None)
        return view

    @property
    def total_weight(self) -> float:
        """Sum of the batch's weights."""
        return float(self.weights.sum())


@dataclass(frozen=True)
class MatrixRowBatch:
    """A columnar batch of matrix rows (one block ``∈ R^{n×d}``).

    Attributes
    ----------
    values:
        2-d float array; row ``i`` is the ``i``-th stream item.
    sites:
        Optional 1-d int array of pre-assigned site indices.
    """

    values: np.ndarray
    sites: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        values = check_row_batch(self.values, name="values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sites", _check_sites(self.sites, values.shape[0]))

    @classmethod
    def from_rows(cls, rows: Iterable[np.ndarray],
                  sites: Optional[Sequence[int]] = None) -> "MatrixRowBatch":
        """Build a batch by stacking an iterable of 1-d rows."""
        stacked = np.asarray(list(rows), dtype=np.float64)
        return cls(values=stacked, sites=sites)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __getitem__(self, key: Union[int, slice]) -> Union[MatrixRow, "MatrixRowBatch"]:
        if isinstance(key, slice):
            # Slices are views of already-validated rows; skip __post_init__.
            view = object.__new__(MatrixRowBatch)
            object.__setattr__(view, "values", self.values[key])
            object.__setattr__(view, "sites",
                               self.sites[key] if self.sites is not None else None)
            return view
        site = int(self.sites[key]) if self.sites is not None else None
        return MatrixRow(values=self.values[key], site=site)

    def __iter__(self) -> Iterator[MatrixRow]:
        for index in range(len(self)):
            yield self[index]

    def take(self, indices: np.ndarray) -> "MatrixRowBatch":
        """Select rows by an integer index array (a copy, like NumPy take)."""
        view = object.__new__(MatrixRowBatch)
        object.__setattr__(view, "values", self.values[indices])
        object.__setattr__(view, "sites",
                           self.sites[indices] if self.sites is not None else None)
        return view

    @property
    def dimension(self) -> int:
        """Number of columns ``d``."""
        return int(self.values.shape[1])

    @property
    def squared_frobenius(self) -> float:
        """Total squared norm (the implicit total weight) of the batch."""
        return float(np.einsum("ij,ij->", self.values, self.values))
