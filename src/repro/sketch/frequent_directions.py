"""Frequent Directions matrix sketching.

Frequent Directions (FD) [Liberty 2013; Ghashami & Phillips 2014] is the
matrix analogue of the Misra–Gries frequency summary: it receives rows of a
matrix ``A ∈ R^{n×d}`` one by one and maintains a sketch ``B ∈ R^{ℓ×d}`` such
that for every unit vector ``x``

```
0 ≤ ‖Ax‖² − ‖Bx‖² ≤ 2‖A‖²_F / ℓ .
```

The implementation follows the standard "doubling buffer" formulation: rows
are appended to a ``2ℓ × d`` buffer; when the buffer fills, a singular value
decomposition is taken, the squared singular values are shrunk by the
``(ℓ+1)``-st squared singular value ``δ``, and only the top ``ℓ`` directions
are kept.  The cumulative shrinkage ``Σδ`` gives the data-dependent error
bound ``‖Ax‖² − ‖Bx‖² ≤ Σδ ≤ ‖A‖²_F / ℓ`` (per compaction ``δ`` accounts for
at least ``ℓ+1`` directions of removed energy).

FD sketches are mergeable: stacking the rows of two sketches with the same
``ℓ`` and compacting yields a sketch for the concatenated input with error at
most the sum of the two input errors.  Distributed protocol P1 uses this.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from ..accel.fd_kernels import check_svd_mode, shrink_rows, spectral_decomposition
from ..utils.validation import check_positive_int, check_row, check_row_batch
from .base import MatrixSketch

__all__ = ["FrequentDirections"]


class FrequentDirections(MatrixSketch):
    """Frequent Directions sketch with ``sketch_size`` retained directions.

    Parameters
    ----------
    dimension:
        Number of columns ``d`` of the streamed matrix.
    sketch_size:
        Number of retained rows ``ℓ``.  The worst-case error of the sketch is
        ``2‖A‖²_F / ℓ`` (and at most ``‖A‖²_F / ℓ`` with the buffered variant
        implemented here, whose shrinkage uses the ``(ℓ+1)``-st singular value
        of a ``2ℓ``-row buffer).
    buffer_multiplier:
        The buffer holds ``buffer_multiplier * sketch_size`` rows between
        compactions; 2 is the standard choice giving amortised ``O(dℓ)``
        update time.  Larger multipliers amortise the fixed per-compaction
        LAPACK latency over more rows at the cost of a proportionally
        larger buffer — the FD invariant and the shrinkage certificate hold
        for any multiplier (the shrink step subtracts the ``(ℓ+1)``-st
        squared singular value of whatever is buffered).
    svd_mode:
        Which spectral kernel compactions use — one of
        :data:`repro.accel.SVD_MODES`.  ``"exact"`` is the historical
        ``numpy.linalg.svd`` path (bit-for-bit reproducible against
        archived runs); the default ``"auto"`` selects the Gram-trick
        kernel, which is several times faster on the small buffers FD
        produces and keeps the sketch within the same FD error bound.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> rows = rng.standard_normal((500, 8))
    >>> fd = FrequentDirections(dimension=8, sketch_size=4)
    >>> fd.update_many(rows)
    >>> x = np.eye(8)[0]
    >>> true = float(np.linalg.norm(rows @ x) ** 2)
    >>> approx = fd.squared_norm_along(x)
    >>> 0 <= true - approx <= 2 * float((rows ** 2).sum()) / 4 + 1e-6
    True
    """

    def __init__(self, dimension: int, sketch_size: int, buffer_multiplier: int = 2,
                 svd_mode: str = "auto"):
        self._dimension = check_positive_int(dimension, name="dimension")
        self._sketch_size = check_positive_int(sketch_size, name="sketch_size")
        self._svd_mode = check_svd_mode(svd_mode)
        multiplier = check_positive_int(buffer_multiplier, name="buffer_multiplier")
        if multiplier < 2:
            raise ValueError("buffer_multiplier must be at least 2")
        self._capacity = multiplier * self._sketch_size
        self._buffer = np.zeros((self._capacity, self._dimension), dtype=np.float64)
        self._filled = 0
        self._rows_seen = 0
        self._squared_frobenius = 0.0
        self._shrinkage = 0.0

    # --------------------------------------------------------------- factory
    @classmethod
    def from_epsilon(cls, dimension: int, epsilon: float,
                     svd_mode: str = "auto") -> "FrequentDirections":
        """Size the sketch so the error is at most ``epsilon * ‖A‖²_F``.

        Uses ``ℓ = ceil(2/ε)`` which satisfies Liberty's bound
        ``2‖A‖²_F/ℓ ≤ ε‖A‖²_F``.
        """
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
        return cls(dimension=dimension, sketch_size=max(1, math.ceil(2.0 / epsilon)),
                   svd_mode=svd_mode)

    # ------------------------------------------------------------- properties
    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def sketch_size(self) -> int:
        """The number of retained directions ``ℓ``."""
        return self._sketch_size

    @property
    def svd_mode(self) -> str:
        """The spectral kernel compactions use (see :data:`repro.accel.SVD_MODES`)."""
        return self._svd_mode

    @property
    def rows_seen(self) -> int:
        """Number of rows processed so far."""
        return self._rows_seen

    @property
    def squared_frobenius(self) -> float:
        return self._squared_frobenius

    @property
    def shrinkage(self) -> float:
        """Cumulative shrinkage; a data-dependent bound on ``‖Ax‖² − ‖Bx‖²``."""
        return self._shrinkage

    def error_bound(self) -> float:
        """Worst-case error bound ``2 ‖A‖²_F / ℓ`` on ``‖Ax‖² − ‖Bx‖²``."""
        return 2.0 * self._squared_frobenius / self._sketch_size

    # ---------------------------------------------------------------- updates
    def update(self, row: np.ndarray) -> None:
        row = check_row(row, self._dimension, name="row")
        if self._filled == self._capacity:
            self._compact()
        self._buffer[self._filled, :] = row
        self._filled += 1
        self._rows_seen += 1
        self._squared_frobenius += float(np.dot(row, row))

    def append_batch(self, rows: np.ndarray) -> None:
        """Append a block of rows, compacting once per buffer fill.

        Bit-identical to repeated :meth:`update`: rows are copied into the
        buffer in whole slices and a compaction is triggered exactly when the
        buffer fills, which is the same schedule the per-row path follows
        (compaction inputs — the buffer contents — are identical, so the SVDs
        and shrinkage are too).  Only the squared-Frobenius accumulator may
        differ in the last few ulps because it sums per block instead of per
        row.
        """
        rows = check_row_batch(rows, self._dimension, name="rows")
        total = rows.shape[0]
        start = 0
        while start < total:
            if self._filled == self._capacity:
                self._compact()
            take = min(self._capacity - self._filled, total - start)
            self._buffer[self._filled:self._filled + take, :] = rows[start:start + take]
            self._filled += take
            start += take
        self._rows_seen += total
        self._squared_frobenius += float(np.einsum("ij,ij->", rows, rows))

    def _shrink_active_rows(self) -> tuple:
        """The SVD-shrink step shared by :meth:`_compact` and
        :meth:`compacted_view`: returns ``(compacted, delta)`` for the
        currently buffered rows, without touching the buffer."""
        active = self._buffer[: self._filled, :]
        return shrink_rows(active, self._sketch_size, mode=self._svd_mode)

    def _compact(self) -> None:
        """Shrink the buffer back to ``sketch_size`` retained directions."""
        if self._filled <= self._sketch_size:
            return
        compacted, delta = self._shrink_active_rows()
        # Zero first: rows past the retained ones are then all-zero bytes,
        # which a compressed checkpoint does not store.
        self._buffer[:] = 0.0
        self._buffer[: compacted.shape[0], :] = compacted
        self._filled = compacted.shape[0]
        self._shrinkage += delta

    def compact(self) -> None:
        """Force a compaction so the sketch has at most ``sketch_size`` rows."""
        self._compact()

    def sketch_matrix(self) -> np.ndarray:
        """Return the current sketch rows (between ``0`` and ``2ℓ`` of them)."""
        return self._buffer[: self._filled, :].copy()

    def compacted_matrix(self) -> np.ndarray:
        """Return the sketch after forcing compaction to at most ``ℓ`` rows.

        This *installs* the compaction (buffer, shrinkage) — it is part of
        the mutating update schedule (e.g. site flushes in protocol P1).
        Read-only consumers (query surfaces) use :meth:`compacted_view`.
        """
        self._compact()
        return self.sketch_matrix()

    def compacted_view(self) -> np.ndarray:
        """The compacted sketch *without* mutating the buffer.

        Same ``≤ ℓ``-row matrix a :meth:`compacted_matrix` call would
        return, but the buffered rows, compaction schedule and shrinkage
        accumulator are untouched — answering a query never perturbs the
        stream evolution, which is what makes whole-stream and instalment
        ingestion (and the sharded cluster layer's per-chunk dispatch)
        bit-identical.
        """
        if self._filled <= self._sketch_size:
            return self._buffer[: self._filled, :].copy()
        compacted, _ = self._shrink_active_rows()
        return compacted

    # ---------------------------------------------------------------- merging
    def merge(self, other: "FrequentDirections") -> "FrequentDirections":
        """Merge two FD sketches over disjoint inputs into a new sketch.

        Stack-and-compact: the two sketches' rows are stacked in whole
        blocks (the block-copy schedule of :meth:`append_batch`, compacting
        exactly when the buffer fills).  The result summarises the
        concatenation of the two inputs and its error is at most the sum of
        the two input errors (mergeability property of Agarwal et al. 2012);
        the sharded cluster layer and distributed protocol P1 both rely on
        this.
        """
        if not isinstance(other, FrequentDirections):
            raise TypeError("can only merge with another FrequentDirections")
        if other._dimension != self._dimension:
            raise ValueError(
                f"dimension mismatch: {self._dimension} vs {other._dimension}"
            )
        if other._sketch_size != self._sketch_size:
            raise ValueError(
                f"sketch_size mismatch: {self._sketch_size} vs {other._sketch_size}"
            )
        merged = FrequentDirections(
            dimension=self._dimension,
            sketch_size=self._sketch_size,
            buffer_multiplier=self._capacity // self._sketch_size,
            svd_mode=self._svd_mode,
        )
        for block in (self.sketch_matrix(), other.sketch_matrix()):
            total = block.shape[0]
            start = 0
            while start < total:
                if merged._filled == merged._capacity:
                    merged._compact()
                take = min(merged._capacity - merged._filled, total - start)
                merged._buffer[merged._filled:merged._filled + take, :] = \
                    block[start:start + take]
                merged._filled += take
                start += take
        # The accumulators describe the concatenated input, not the stacked
        # sketch rows: totals add, and any compaction during stacking has
        # already folded its delta into merged._shrinkage.
        merged._squared_frobenius = self._squared_frobenius + other._squared_frobenius
        merged._rows_seen = self._rows_seen + other._rows_seen
        merged._shrinkage += self._shrinkage + other._shrinkage
        return merged

    def copy(self) -> "FrequentDirections":
        """Return a deep copy of the sketch."""
        clone = FrequentDirections(
            dimension=self._dimension,
            sketch_size=self._sketch_size,
            buffer_multiplier=self._capacity // self._sketch_size,
            svd_mode=self._svd_mode,
        )
        clone._buffer = self._buffer.copy()
        clone._filled = self._filled
        clone._rows_seen = self._rows_seen
        clone._squared_frobenius = self._squared_frobenius
        clone._shrinkage = self._shrinkage
        return clone

    def reset(self) -> None:
        """Empty the sketch, forgetting all processed rows."""
        self._buffer[:] = 0.0
        self._filled = 0
        self._rows_seen = 0
        self._squared_frobenius = 0.0
        self._shrinkage = 0.0

    #: The row buffer (rows past ``filled`` are zero) and the counters.
    STATE = {"buffer": "_buffer", "filled": "_filled", "rows_seen": "_rows_seen",
             "squared_frobenius": "_squared_frobenius",
             "shrinkage": "_shrinkage"}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        if state["buffer"].shape != self._buffer.shape:
            raise ValueError("the FD buffer does not fit this sketch")
        super().load_state_dict(state)

    def top_directions(self, k: Optional[int] = None) -> np.ndarray:
        """Return the top ``k`` right singular vectors of the current sketch."""
        sketch = self.compacted_matrix()
        if sketch.size == 0:
            return np.zeros((0, self._dimension))
        _, vt = spectral_decomposition(sketch, mode=self._svd_mode, top=k)
        return vt

    def __repr__(self) -> str:
        return (
            f"FrequentDirections(dimension={self._dimension}, "
            f"sketch_size={self._sketch_size}, rows_seen={self._rows_seen})"
        )
