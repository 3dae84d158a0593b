"""Matrix protocol P2: deterministic direction thresholds (Section 5.2, Algs. 5.3/5.4).

Each site ``j`` accumulates its unsent rows in a local matrix ``B_j`` and
tracks ``F_j``, the squared Frobenius norm received since it last reported to
the coordinator.  The coordinator maintains ``F̂``, an ε-approximation of
``‖A‖²_F``, and a matrix ``B`` built from the *directions* sites send:

* when ``F_j ≥ (ε/m)·F̂`` the site sends the scalar ``F_j`` and resets it;
* after appending the new row, the site computes the SVD of ``B_j`` and sends
  every direction ``σ_ℓ·v_ℓ`` whose squared singular value reaches
  ``(ε/m)·F̂``, zeroing those singular values locally.

After ``m`` scalar messages the coordinator broadcasts the updated ``F̂``
(starting a new round).  Because the site only ever retains directions whose
squared norm is below the threshold, the mass missing from the coordinator is
at most ``ε·‖A‖²_F`` in every direction, giving the one-sided guarantee
``0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε·‖A‖²_F`` (Theorem 4) with only
``O((m/ε)·log(βN))`` messages.

Implementation note: a direction is sent exactly when its ``σ²`` reaches
``(ε/m)·F̂``, so *when* a site decomposes its residual is a schedule, not
part of the protocol — any valid upper bound on ``σ₁²(B_j)`` is a correct
gate, and only a decomposition that can emit needs to run.

* **The Gram.**  A site keeps ``G_j = B_jᵀB_j`` (``d × d``) instead of the
  rows: a block ``R`` adds ``RᵀR``, and an emission replaces ``G_j`` by the
  Gram of the light directions.  Its eigenvalues are the ``σ²`` of ``B_j``
  and its eigenvectors the directions, so site memory is ``O(d²)`` however
  long the gate stays shut.  Arriving rows wait in a small buffer that is
  folded in (one ``RᵀR``) whenever it fills; the fold points depend on row
  counts and emissions alone, so the per-item and batch paths decompose
  bit-identical Grams and send bit-identical directions.
* **The cheap trigger.**  ``top_bound`` — the last bound on ``σ₁²`` plus the
  squared norms since (``σ₁²`` grows by at most the added squared norm) —
  decides *when* to look.
* **The certified bound.**  When ``top_bound`` reaches the threshold, the
  site computes ``(tr G¹⁶)^{1/16} ≥ λ₁(G)`` from three scaled squarings of
  ``G`` (``tr G¹⁶ = ‖G⁸‖²_F``).  Only if that bound reaches the threshold is
  ``G`` decomposed; otherwise the bound becomes the new ``top_bound``.
* **The margin.**  Both bounds open the gate at the threshold less a
  relative ``4·d`` ulps, so rounding in the bounds or in the decomposed
  ``σ²`` can never skip a decomposition that would emit.

The coordinator stacks the received directions in one row buffer, doubled
when full.  It may optionally compress them with a Frequent Directions
sketch (``coordinator_sketch_size``), as suggested at the end of Section 5.2.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..accel.fd_kernels import check_svd_mode, spectral_decomposition
from ..sketch.frequent_directions import FrequentDirections
from ..streaming.protocol import first_crossing
from ..streaming.weight_rounds import ThresholdRounds
from ..utils.declared import Declared
from ..utils.validation import check_positive_int
from .base import MatrixTrackingProtocol
from .p1_batched_fd import _fd_buffer_multiplier

__all__ = ["DeterministicDirectionProtocol"]

#: Rows a site buffers before folding them into its Gram.
_FOLD_ROWS = 16

#: Rows of the coordinator's first buffer for ``B``; a full buffer doubles.
_FIRST_ROWS = 16

#: Rounding margin of the gate, in ulps per column: a bound on ``σ₁²``
#: opens the gate once it reaches the threshold less this relative slack.
_BOUND_ULPS = 4
_ULP = float(np.finfo(np.float64).eps)


def _certified_top(gram: np.ndarray) -> float:
    """An upper bound ``(tr G¹⁶)^{1/16} ≥ λ₁(G)`` of a PSD Gram matrix."""
    scale = float(np.trace(gram))
    if scale <= 0.0:
        return 0.0
    # Scaled by the trace, every eigenvalue lies in [0, 1]: no overflow.
    power = gram / scale
    for _ in range(3):
        power = power @ power
    # tr G¹⁶ = ‖G⁸‖²_F for symmetric G: the fourth squaring is a sum of squares.
    return scale * float(np.einsum("ij,ij->", power, power)) ** 0.0625


class _SiteState(Declared):
    """Per-site state for protocol P2: the residual ``B_j`` as its Gram."""

    STATE = {"gram": "gram", "pending": "pending", "filled": "filled",
             "norm_since_scalar": "norm_since_scalar", "top_bound": "top_bound"}

    def __init__(self, dimension: int):
        self.gram = np.zeros((dimension, dimension))     # folded part of B_jᵀB_j
        self.pending = np.zeros((_FOLD_ROWS, dimension))  # rows not folded yet
        self.filled = 0
        self.norm_since_scalar = 0.0                      # F_j
        self.top_bound = 0.0                              # upper bound on σ₁²(B_j)

    def append(self, rows: np.ndarray) -> None:
        """Add a block of rows to the residual, folding whenever the buffer fills."""
        start, total = 0, rows.shape[0]
        capacity = self.pending.shape[0]
        while start < total:
            take = min(capacity - self.filled, total - start)
            self.pending[self.filled:self.filled + take] = rows[start:start + take]
            self.filled += take
            start += take
            if self.filled == capacity:
                self.gram += self.pending.T @ self.pending
                # Unused rows stay zero: that is what lets a compressed
                # checkpoint drop the trailing all-zero rows.
                self.pending[:] = 0.0
                self.filled = 0

    def residual(self) -> np.ndarray:
        """``B_jᵀB_j``: the folded Gram plus the buffered rows."""
        rows = self.pending[:self.filled]
        return self.gram + rows.T @ rows

    def keep(self, directions: np.ndarray) -> None:
        """Replace the residual by the rows ``directions`` (the light ``σ·v``)."""
        self.gram = directions.T @ directions
        self.pending[:self.filled] = 0.0
        self.filled = 0


class DeterministicDirectionProtocol(ThresholdRounds, MatrixTrackingProtocol):
    """Matrix tracking protocol P2 (deterministic direction thresholds).

    The coordinator's ``B`` is one float64 row buffer plus a row count:
    :meth:`sketch_matrix` returns an owned copy of the live rows,
    :meth:`covariance` and :meth:`squared_norm_along` read them in place,
    and a checkpoint writes exactly those rows as one array.

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    dimension:
        Number of columns ``d``.
    epsilon:
        Target error ``ε`` relative to ``‖A‖²_F``.
    coordinator_sketch_size:
        If given, the coordinator compresses received directions with a
        Frequent Directions sketch of this many rows instead of stacking them
        exactly (Section 5.2's space reduction).
    svd_mode:
        Spectral kernel that decomposes a site's Gram matrix when it can
        emit (and compacts the optional coordinator FD sketch) — one of
        :data:`repro.accel.SVD_MODES`.  ``"exact"`` is LAPACK's ``gesdd`` on
        the Gram; the gate deciding when to decompose is the same in every
        mode.
    keep_message_records:
        Retain a full message log (tests only).
    """

    def __init__(self, num_sites: int, dimension: int, epsilon: float,
                 coordinator_sketch_size: Optional[int] = None,
                 svd_mode: str = "auto",
                 keep_message_records: bool = False):
        super().__init__(num_sites, dimension, epsilon,
                         keep_message_records=keep_message_records)
        self._svd_mode = check_svd_mode(svd_mode)
        self._sites = [_SiteState(dimension) for _ in range(num_sites)]
        self._init_rounds()                      # F̂ is the rounds' Ŵ
        # B is ``_coordinator_rows[:_coordinator_count]``, in arrival order.
        self._coordinator_rows = np.zeros((0, dimension))
        self._coordinator_count = 0
        self._coordinator_sketch: Optional[FrequentDirections] = None
        if coordinator_sketch_size is not None:
            size = check_positive_int(coordinator_sketch_size,
                                      name="coordinator_sketch_size")
            self._coordinator_sketch = FrequentDirections(
                dimension=dimension, sketch_size=size, svd_mode=self._svd_mode,
                buffer_multiplier=_fd_buffer_multiplier(self._svd_mode),
            )

    #: The optional FD sketch compressing ``B`` (``None`` without one).
    STATE = {"coordinator_sketch": "_coordinator_sketch"}

    def state_dict(self) -> Dict[str, Any]:
        """Also ``B`` as exactly its live rows, one array (no spare
        capacity: a restore installs them as a full buffer, which the next
        received direction doubles)."""
        return {**super().state_dict(), "coordinator_rows": self._sketch_view()
                if self._coordinator_sketch is None else None}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        if self._coordinator_sketch is None:
            self._coordinator_rows = state["coordinator_rows"]
            self._coordinator_count = self._coordinator_rows.shape[0]

    # ------------------------------------------------------------ properties
    @property
    def estimated_norm(self) -> float:
        """The coordinator's running estimate ``F̂`` of ``‖A‖²_F``."""
        return self._estimated_total

    @property
    def svd_mode(self) -> str:
        """Spectral kernel used by the site decompositions."""
        return self._svd_mode

    # ---------------------------------------------------------------- site side
    def process(self, site: int, row: np.ndarray) -> None:
        row = self._record_observation(row)
        state = self._sites[site]
        block = row[np.newaxis, :]
        # The batch kernel's norm, so one row leaves the same bits either way.
        row_norm = float(np.einsum("ij,ij->i", block, block)[0])
        state.norm_since_scalar += row_norm
        if state.norm_since_scalar >= self._threshold():
            self._send_total(site, state.norm_since_scalar)
            state.norm_since_scalar = 0.0
        state.append(block)
        state.top_bound += row_norm
        if state.top_bound >= self._gate_level():
            self._gate(site)

    def process_batch(self, site: int, rows: np.ndarray) -> None:
        """Vectorized site-batch ingestion.

        Both per-item triggers — the scalar report (``F_j`` reaching
        ``(ε/m)·F̂``) and the gate's cheap bound (``top_bound`` reaching the
        gate level just below it) — are cumulative sums of the arriving
        squared row norms crossing a level that is constant between scalar
        reports, so binary searches locate the next event of either kind and
        the trigger-free rows in between join the site residual as one block.
        The trigger row replays the per-item order exactly: scalar check
        before the append, gate check (against the possibly refreshed
        threshold) after it.
        """
        rows = self._record_observations(rows)
        total = rows.shape[0]
        if total == 0:
            return
        state = self._sites[site]
        norms = np.einsum("ij,ij->i", rows, rows)
        cumulative = np.cumsum(norms)
        consumed = 0.0
        start = 0
        while start < total:
            threshold = self._threshold()
            scalar_at = first_crossing(cumulative, threshold,
                                       carry=state.norm_since_scalar - consumed,
                                       start=start)
            gate_at = first_crossing(cumulative, self._gate_level(),
                                     carry=state.top_bound - consumed,
                                     start=start)
            trigger = min(scalar_at, gate_at)
            stop = min(trigger, total)
            if stop > start:
                block_norm = float(cumulative[stop - 1]) - consumed
                state.append(rows[start:stop])
                state.top_bound += block_norm
                state.norm_since_scalar += block_norm
                consumed = float(cumulative[stop - 1])
            if trigger >= total:
                return
            row_norm = float(norms[trigger])
            if trigger == scalar_at:
                self._send_total(site, state.norm_since_scalar + row_norm)
                state.norm_since_scalar = 0.0
            else:
                state.norm_since_scalar += row_norm
            state.append(rows[trigger:trigger + 1])
            state.top_bound += row_norm
            consumed = float(cumulative[trigger])
            if state.top_bound >= self._gate_level():
                self._gate(site)
            start = trigger + 1

    def _gate(self, site: int) -> None:
        """Decompose the site residual only if a direction can reach the threshold."""
        state = self._sites[site]
        residual = state.residual()
        bound = _certified_top(residual)
        if bound < self._gate_level():
            state.top_bound = bound
            return
        self._emit_heavy_directions(site, residual)

    def _emission_level(self) -> float:
        """The ``σ²`` a direction needs to be sent: the threshold, never zero."""
        return max(self._threshold(), 1e-300)

    def _gate_level(self) -> float:
        """The level an upper bound on ``σ₁²`` must reach to open the gate.

        The emission level less ``4·d`` ulps: the bounds and the decomposed
        ``σ²`` round differently, and a bound rounded below a ``σ²`` that the
        decomposition puts at the threshold must still open the gate.
        """
        return self._emission_level() / (1.0 + _BOUND_ULPS * self._dimension * _ULP)

    def _emit_heavy_directions(self, site: int, residual: np.ndarray) -> None:
        """Decompose the site's Gram and ship every direction above threshold."""
        state = self._sites[site]
        # Full spectrum: the light directions are retained as the new
        # residual, so a top-k kernel cannot be used here (auto → gram).
        # For the PSD Gram the values are σ² and ``vt`` its eigenvectors.
        squared, vt = spectral_decomposition(residual, mode=self._svd_mode)
        count = int(np.count_nonzero(squared >= self._emission_level()))
        if count:
            for value, direction in zip(squared[:count], vt[:count]):
                self.network.send_vector(site, description="heavy direction")
                self._receive_direction(np.sqrt(value) * direction)
            state.keep(np.sqrt(squared[count:, np.newaxis]) * vt[count:])
        state.top_bound = float(squared[count]) if count < squared.size else 0.0

    # --------------------------------------------------------- coordinator side
    def _receive_direction(self, direction_row: np.ndarray) -> None:
        if self._coordinator_sketch is not None:
            self._coordinator_sketch.update(direction_row)
            return
        rows, count = self._coordinator_rows, self._coordinator_count
        if count == rows.shape[0]:
            grown = np.empty((max(2 * count, _FIRST_ROWS), self.dimension))
            grown[:count] = rows
            self._coordinator_rows = rows = grown
        rows[count] = direction_row
        self._coordinator_count = count + 1

    # ---------------------------------------------------------------- queries
    def _sketch_view(self) -> np.ndarray:
        if self._coordinator_sketch is not None:
            # compacted_view: queries are read-only (see protocol P1).
            return self._coordinator_sketch.compacted_view()
        return self._coordinator_rows[:self._coordinator_count]

    def sketch_matrix(self) -> np.ndarray:
        if self._coordinator_sketch is not None:
            return self._coordinator_sketch.compacted_view()
        # An owned copy of the live rows: callers may mutate it.
        return self._sketch_view().copy()

    def estimated_squared_frobenius(self) -> float:
        return self._estimated_total

    def missing_mass(self) -> Optional[Tuple[np.ndarray, float]]:
        """``(Σⱼ B_jᵀB_j, F̂ + Σⱼ F_j)``: the sites' unsent residuals and norms.

        Every row is either in a site residual or was sent as directions
        that keep its Gram, and every squared norm is either in ``F̂`` or in
        a site's ``F_j``, so both are exact (Theorem 4's accounting).  An
        FD-compressed coordinator ``B`` loses mass of its own: ``None``.
        """
        if self._coordinator_sketch is not None:
            return None
        residual = sum(site.residual() for site in self._sites)
        unsent = sum(site.norm_since_scalar for site in self._sites)
        return residual, self._estimated_total + unsent
