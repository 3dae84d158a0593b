"""Protocol P4: randomized reporting (Section 4.4, Algorithm 4.7).

This protocol extends the unweighted randomized tracking protocol of Huang,
Yi and Zhang to weighted items.  Each site ``j`` keeps the exact weight
``f_e(A_j)`` of every element it has observed and, given the coordinator's
current global weight estimate ``Ŵ``, a reporting rate
``p = 2√m / (ε·Ŵ)``.  When an item ``(e, w)`` arrives the site sends its
*current local total* ``f_e(A_j)`` to the coordinator with probability
``p̄ = 1 − e^{−p·w}`` (the weighted generalisation of flipping one coin per
unit of weight).  The coordinator stores, per (site, element), the latest
report corrected upward by ``1/p`` — the expected weight of ``e`` that will
arrive at the site before its next successful report — and estimates
``f_e(A)`` by summing the corrected reports over sites.

The global estimate ``Ŵ`` is maintained by a standard doubling scheme: each
site reports its local total weight whenever it doubles, and the coordinator
broadcasts a new ``Ŵ`` whenever the summed reports double.

Guarantees (Theorem 3): ``O((√m/ε)·log(βN))`` messages and, with probability
at least 0.75, all estimates within ``ε·W``.  The success probability can be
boosted by running independent copies and taking medians; the experiment
drivers use a single copy as in the paper.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..sketch.base import counter_columns, counter_dict
from ..streaming.items import _as_element_column
from ..streaming.network import MessageKind
from ..streaming.protocol import group_elements
from ..streaming.weight_rounds import DoublingRounds
from ..utils.declared import Declared
from ..utils.rng import SeedLike
from .base import WeightedHeavyHitterProtocol

__all__ = ["RandomizedReportingProtocol"]


def _positions_by_element(elements: np.ndarray) -> Iterator[Tuple[Hashable, np.ndarray]]:
    """``(element, positions)`` per group of ``elements``, in grouping order.

    ``positions`` ascend: they are one group's run of a stable ``argsort``
    of the grouping's ``inverse``, cut at the ``np.bincount`` boundaries.
    """
    keys, inverse = group_elements(elements)
    order = np.argsort(inverse, kind="stable")
    boundaries = np.cumsum(np.bincount(inverse, minlength=keys.shape[0])).tolist()
    start = 0
    for element, stop in zip(keys, boundaries):
        yield element, order[start:stop]
        start = stop


class _SiteState(Declared):
    """Per-site state for protocol P4."""

    STATE = {"local_weight": "local_weight",
             "weight_at_last_report": "weight_at_last_report"}

    def __init__(self) -> None:
        self.local_counts: Dict[Hashable, float] = {}
        self.local_weight = 0.0
        self.weight_at_last_report = 0.0

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(),
                "local_counts": counter_columns(self.local_counts)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self.local_counts = counter_dict(state["local_counts"])


class RandomizedReportingProtocol(DoublingRounds, WeightedHeavyHitterProtocol):
    """Weighted heavy hitters protocol P4 (randomized reporting).

    Parameters
    ----------
    num_sites:
        Number of sites ``m``.
    epsilon:
        Target additive error ``ε`` (holds with constant probability).
    seed:
        Seed for the per-site reporting coins.
    keep_message_records:
        Retain a full message log (tests only).
    """

    def __init__(self, num_sites: int, epsilon: float, seed: SeedLike = None,
                 keep_message_records: bool = False):
        super().__init__(num_sites, epsilon, keep_message_records=keep_message_records)
        self._sites: List[_SiteState] = [_SiteState() for _ in range(num_sites)]
        # Coordinator state.
        self._init_rounds(seed)
        # Latest corrected report per (site, element).
        self._corrected_reports: Dict[Tuple[int, Hashable], float] = {}
        # Latest corrected local-total report per site (the "all items are one
        # element" special case of the same estimator, giving an εW-accurate
        # total weight without extra messages).
        self._corrected_totals: Dict[int, float] = {}

    #: The latest corrected reports, per ``(site, element)`` and per site.
    STATE = {"corrected_reports": "_corrected_reports",
             "corrected_totals": "_corrected_totals"}

    # ---------------------------------------------------------------- site side
    def process(self, site: int, element: Hashable, weight: float = 1.0) -> None:
        weight = self._record_observation(weight)
        local_counts = self._sites[site].local_counts
        local_counts[element] = local_counts.get(element, 0.0) + weight
        rate = self._flip_coin(site, weight)
        if rate is not None:
            self._send_element_report(site, element, local_counts[element], rate)

    def process_batch(self, site: int, elements: Sequence[Hashable],
                      weights: Optional[Sequence[float]] = None) -> None:
        """Vectorized site-batch ingestion.

        The coins come from one walk of the batch (:meth:`_coin_walk`).  The
        coordinator keeps only the *latest* corrected report per ``(site,
        element)``, so per element only the final reporting position
        matters: group positions by element, compute running local totals
        with one cumulative sum per element, and overwrite each reported
        element's entry once.  The vector-message count advances in one
        batched accounting step.
        """
        weights = self._record_observations(weights, len(elements))
        count = weights.shape[0]
        if count == 0:
            return
        if not (isinstance(elements, np.ndarray) and elements.ndim == 1):
            elements = _as_element_column(list(elements))
        state = self._sites[site]
        send_mask, rates, cumulative_weight = self._coin_walk(site, weights)

        send_positions = np.nonzero(send_mask)[0]
        if send_positions.size == 0:
            for element, positions in _positions_by_element(elements):
                state.local_counts[element] = (
                    state.local_counts.get(element, 0.0)
                    + float(weights[positions].sum())
                )
            return
        running_totals = np.empty(count, dtype=np.float64)
        for element, positions in _positions_by_element(elements):
            totals = (state.local_counts.get(element, 0.0)
                      + np.cumsum(weights[positions]))
            running_totals[positions] = totals
            state.local_counts[element] = float(totals[-1])
        self.network.send_batch(site, int(send_positions.size),
                                kind=MessageKind.VECTOR,
                                description="element reports")
        for element, positions in _positions_by_element(
                elements[send_positions]):
            last = int(send_positions[int(positions[-1])])
            rate = float(rates[last])
            correction = (1.0 / rate - 1.0) if rate < 1.0 else 0.0
            self._corrected_reports[(site, element)] = (
                float(running_totals[last]) + correction
            )
        last_send = int(send_positions[-1])
        rate = float(rates[last_send])
        correction = (1.0 / rate - 1.0) if rate < 1.0 else 0.0
        self._corrected_totals[site] = (
            float(cumulative_weight[last_send]) + correction
        )

    def _send_element_report(self, site: int, element: Hashable,
                             local_total: float, rate: float) -> None:
        """Ship the site's current local total for ``element``."""
        self.network.send_vector(site, description=f"element report {element!r}")
        correction = (1.0 / rate - 1.0) if rate < 1.0 else 0.0
        self._corrected_reports[(site, element)] = local_total + correction
        self._corrected_totals[site] = self._sites[site].local_weight + correction

    # ---------------------------------------------------------------- queries
    def estimate(self, element: Hashable) -> float:
        return sum(
            report
            for (site, candidate), report in self._corrected_reports.items()
            if candidate == element
        )

    def estimated_total_weight(self) -> float:
        if self._corrected_totals:
            return sum(self._corrected_totals.values())
        if self._reported_weight > 0.0:
            return self._reported_weight
        return self._broadcast_weight

    def estimates(self) -> Dict[Hashable, float]:
        grouped: Dict[Hashable, float] = {}
        for (_, element), report in self._corrected_reports.items():
            grouped[element] = grouped.get(element, 0.0) + report
        return grouped
