"""Matrix protocol P4: randomized singular-direction updates (Appendix C).

This is the paper's *negative result*: the natural matrix analogue of the
randomized heavy-hitters protocol P4, run on the same doubling rounds and
per-arrival coin (:class:`~repro.streaming.weight_rounds.DoublingRounds`)
with a row's ``‖a‖²`` as its weight.  Each site ``j`` keeps an
approximation ``Â_j`` that is also known to the coordinator.  With
probability ``p̄ = 1 − e^{−p‖a‖²}`` (where ``p = 2√m/(ε·F̂)``) the site
reports, for every right singular vector ``v_i`` of ``Â_j``, the updated
squared norm ``‖A_j v_i‖² + 1/p`` — a single vector message ``z`` of length
``d`` — and both parties set ``Â_j = diag(z)·Vᵀ``.

Because such an update rescales the energy along the *existing* right
singular vectors but never rotates them (the right singular vectors of
``Z·Vᵀ`` are again the columns of ``V``), the approximation basis stays at
its initial value, the standard basis, forever.  So ``‖A_j v_i‖²`` is the
energy of column ``i`` of ``A_j``: a site keeps those ``d`` column energies
(``O(d)`` work per row) and ``Â_j = diag(z)``.  Along directions that are
not in that basis the error is uncontrolled, which is exactly why the paper
shows this protocol cannot match the guarantees of P1–P3 — Figures 6 and 7
demonstrate the error blow-up on real data, and the benchmark drivers
reproduce those figures with this implementation.

Communication is ``O((√m/ε)·log(βN))`` messages (as for heavy hitters P4),
which is why the approach would be attractive if it worked.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..streaming.network import MessageKind
from ..streaming.weight_rounds import DoublingRounds
from ..utils.rng import SeedLike
from .base import MatrixTrackingProtocol

__all__ = ["SingularDirectionUpdateProtocol"]


class _SiteState:
    """Per-site state for the appendix-C protocol."""

    def __init__(self, dimension: int):
        self.energies = np.zeros(dimension)   # ‖A_j e_i‖², the column energies
        self.local_weight = 0.0                # ‖A_j‖²_F
        self.weight_at_last_report = 0.0
        self.scales = np.zeros(dimension)     # z values: Â_j = diag(z)


class SingularDirectionUpdateProtocol(DoublingRounds, MatrixTrackingProtocol):
    """Matrix tracking protocol P4 (appendix C; known to be unsound).

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    dimension:
        Number of columns ``d``.
    epsilon:
        Nominal error parameter ``ε`` (the protocol does *not* achieve it in
        general; that is the point of the appendix).
    seed:
        Seed for the per-site reporting coins.
    keep_message_records:
        Retain a full message log (tests only).
    """

    def __init__(self, num_sites: int, dimension: int, epsilon: float,
                 seed: SeedLike = None, keep_message_records: bool = False):
        super().__init__(num_sites, dimension, epsilon,
                         keep_message_records=keep_message_records)
        self._sites: List[_SiteState] = [_SiteState(dimension) for _ in range(num_sites)]
        self._init_rounds(seed)

    #: Checkpoint-contract version of this class's state layout (2: column
    #: energies instead of a covariance and a basis, and the rounds under the
    #: heavy-hitter names of :class:`~repro.streaming.weight_rounds.DoublingRounds`;
    #: version 1 is refused).
    state_version = 2

    #: A row's squared norm may be far below 1: the first report waits for
    #: any positive total.
    _first_report = 1e-12

    # ---------------------------------------------------------------- site side
    def process(self, site: int, row: np.ndarray) -> None:
        row = self._record_observation(row)
        state = self._sites[site]
        state.energies += row * row
        rate = self._flip_coin(site, float(np.dot(row, row)))
        if rate is not None:
            self.network.send_vector(site, description="direction-norm vector z")
            self._set_scales(state, state.energies, rate)

    def process_batch(self, site: int, rows: np.ndarray) -> None:
        """Vectorized site-batch ingestion.

        The coins come from one walk of the batch (:meth:`_coin_walk`).  A
        direction update overwrites the site's scale vector wholesale, so
        only the *last* reporting row's column energies matter: the per-row
        accumulation collapses to one column sum up to that row (and one for
        the rest), with the message accounting advanced in one batched step.
        """
        rows = self._record_observations(rows)
        if rows.shape[0] == 0:
            return
        state = self._sites[site]
        send_mask, rates, _ = self._coin_walk(
            site, np.einsum("ij,ij->i", rows, rows))
        send_positions = np.nonzero(send_mask)[0]
        if send_positions.size == 0:
            state.energies += np.einsum("ij,ij->j", rows, rows)
            return
        last = int(send_positions[-1])
        self.network.send_batch(site, int(send_positions.size),
                                kind=MessageKind.VECTOR,
                                description="direction-norm vector z")
        head, tail = rows[:last + 1], rows[last + 1:]
        energies_at_send = state.energies + np.einsum("ij,ij->j", head, head)
        self._set_scales(state, energies_at_send, float(rates[last]))
        state.energies = energies_at_send + np.einsum("ij,ij->j", tail, tail)

    @staticmethod
    def _set_scales(state: _SiteState, energies: np.ndarray, rate: float) -> None:
        """``z_i² = ‖A_j e_i‖² + 1/p``: the scales the site ships and both keep."""
        correction = (1.0 / rate) if rate < 1.0 else 0.0
        state.scales = np.sqrt(np.maximum(energies + correction, 0.0))

    # ---------------------------------------------------------------- queries
    def sketch_matrix(self) -> np.ndarray:
        blocks = [np.diag(state.scales) for state in self._sites
                  if np.any(state.scales)]
        if not blocks:
            return np.zeros((0, self.dimension))
        return np.vstack(blocks)

    def estimated_squared_frobenius(self) -> float:
        if self._reported_weight > 0.0:
            return self._reported_weight
        return self._broadcast_weight

    def covariance_error_bound(self):
        """Appendix C's point: this protocol achieves no ``ε·‖A‖²_F`` bound."""
        return None
