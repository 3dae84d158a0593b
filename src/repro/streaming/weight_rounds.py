"""The weight rounds of P1, P2 and P4, payload-agnostic (Sections 4 and 5).

The paper builds each matrix protocol from its heavy-hitter twin by reading
a row's squared norm ``‖a‖²`` wherever an item's weight ``w`` was.  What a
protocol does with that weight alone — when a site reports it, how the
coordinator's estimate ``Ŵ`` grows, when ``Ŵ`` is broadcast — therefore
lives here once, one mixin per protocol.  The family classes keep only
their site summaries: Misra–Gries or Frequent Directions for P1, a delta map
or a Gram for P2, per-element counts or column energies for P4.

P1 (:class:`FlushRounds`)
    A site ships its summary together with ``W_i``, its weight since the
    last flush, once ``W_i`` reaches ``(ε/2m)·Ŵ``.  The coordinator adds
    ``W_i`` to its total and re-broadcasts ``Ŵ`` whenever that total has
    grown by more than a ``(1 + ε/2)`` factor.

P2 (:class:`ThresholdRounds`)
    A site sends the scalar ``W_i`` once it reaches ``(ε/m)·Ŵ``; the
    coordinator adds it to ``Ŵ`` and, after ``m`` scalars, broadcasts the new
    ``Ŵ``, which ends a round.

P4 (:class:`DoublingRounds`)
    A site reports its local total whenever it has doubled, and the
    coordinator broadcasts when the sum of reports has doubled.  An arrival
    of weight ``w`` is reported with probability ``1 − e^{−p·w}`` under the
    rate ``p = 2√m/(ε·Ŵ)``, capped at 1.

Like :mod:`~repro.streaming.priority_sampling`, the mixins keep their state
in the protocol's instance dictionary (the checkpointed layout), under the
heavy-hitter names.  They read ``self.epsilon``, ``self.num_sites``,
``self.network`` and ``self._sites``; a site state carries
``weight_since_send`` (P1) or ``local_weight`` and ``weight_at_last_report``
(P4).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Tuple

import numpy as np

from ..utils.rng import SeedLike, as_generator, spawn
from .protocol import first_crossing

__all__ = ["DoublingRounds", "FlushRounds", "ThresholdRounds"]


class FlushRounds:
    """P1: sites flush at ``(ε/2m)·Ŵ``; ``Ŵ`` is re-broadcast on ``(1 + ε/2)`` growth.

    The family supplies ``_flush_site(site)``: ship the site summary, merge
    it at the coordinator, hand ``weight_since_send`` to
    :meth:`_receive_weight` and reset the site.
    """

    def _init_rounds(self) -> None:
        self._coordinator_weight = 0.0      # W_C: total weight of received flushes
        self._broadcast_weight = 0.0        # Ŵ: last broadcast estimate

    @property
    def broadcast_weight(self) -> float:
        """The current global weight estimate ``Ŵ`` known to all sites."""
        return self._broadcast_weight

    def _site_threshold(self) -> float:
        """The site send threshold ``τ = (ε/2m)·Ŵ``."""
        return (self.epsilon / (2.0 * self.num_sites)) * self._broadcast_weight

    def _credit_site(self, site: int, weight: float) -> None:
        """One arrival of ``weight`` at ``site``: flush once ``W_i`` reaches ``τ``."""
        state = self._sites[site]
        state.weight_since_send += weight
        if state.weight_since_send >= self._site_threshold():
            self._flush_site(site)

    def _flush_segments(self, site: int, weights: np.ndarray
                        ) -> Iterator[Tuple[int, int, float, bool]]:
        """Cut a site batch at its flushes.

        Yields ``(start, stop, segment weight, flushes)`` per segment, the
        segment weight already credited to ``W_i``.  The caller absorbs
        ``[start:stop]`` into its summary, then calls ``_flush_site`` when
        ``flushes``; the scan resumes against the refreshed ``τ``.  One
        binary search on the batch's cumulative weights finds each flush,
        so flush timing matches item-at-a-time ingestion up to
        floating-point accumulation order.  A threshold already met (a
        zero-norm row leaves ``τ = 0``) flushes at the first remaining
        arrival, as it does per arrival, so every segment is non-empty.
        """
        state = self._sites[site]
        total = weights.shape[0]
        cumulative = np.cumsum(weights)
        start = 0
        consumed = 0.0  # cumulative weight of the already-credited prefix
        while start < total:
            target = consumed + self._site_threshold() - state.weight_since_send
            stop = first_crossing(cumulative, target, start=start) + 1
            flushes = stop <= total
            stop = min(stop, total)
            segment_weight = float(cumulative[stop - 1]) - consumed
            state.weight_since_send += segment_weight
            consumed = float(cumulative[stop - 1])
            yield start, stop, segment_weight, flushes
            start = stop

    def _receive_weight(self, weight: float) -> None:
        """The coordinator's side of a flush: the ``(1 + ε/2)`` broadcast rule."""
        self._coordinator_weight += weight
        needs_broadcast = (
            self._broadcast_weight <= 0.0
            or self._coordinator_weight / self._broadcast_weight > 1.0 + self.epsilon / 2.0
        )
        if needs_broadcast:
            self._broadcast_weight = self._coordinator_weight
            self.network.broadcast(description="updated weight estimate")

    def flush_all_sites(self) -> None:
        """Force every site to ship its pending summary (used by tests)."""
        for site in range(self.num_sites):
            if self._sites[site].weight_since_send > 0.0:
                self._flush_site(site)


class ThresholdRounds:
    """P2: sites send ``W_i`` at ``(ε/m)·Ŵ``; every ``m`` scalars end a round."""

    def _init_rounds(self) -> None:
        self._estimated_total = 0.0          # Ŵ
        self._scalar_messages_this_round = 0
        self._rounds_completed = 0

    @property
    def estimated_total(self) -> float:
        """The coordinator's running total-weight estimate ``Ŵ``."""
        return self._estimated_total

    @property
    def rounds_completed(self) -> int:
        """Number of completed rounds (broadcasts of ``Ŵ``)."""
        return self._rounds_completed

    def _threshold(self) -> float:
        """The per-site threshold ``(ε/m)·Ŵ``."""
        return (self.epsilon / self.num_sites) * self._estimated_total

    def _send_total(self, site: int, weight: float) -> None:
        """Site ships the scalar message ``(total, W_i)``."""
        self.network.send_scalar(site, description="total weight update")
        self._estimated_total += weight
        self._scalar_messages_this_round += 1
        if self._scalar_messages_this_round >= self.num_sites:
            self._scalar_messages_this_round = 0
            self._rounds_completed += 1
            self.network.broadcast(description="round boundary: new weight estimate")


class DoublingRounds:
    """P4: doubling reports of the local totals and the per-arrival coin."""

    #: The local total a site's first report waits for.
    _first_report = 1.0

    def _init_rounds(self, seed: SeedLike) -> None:
        self._site_rngs = spawn(as_generator(seed), self.num_sites)
        self._reported_weight = 0.0      # sum of site total-weight reports
        self._broadcast_weight = 0.0     # Ŵ known to the sites

    @property
    def broadcast_weight(self) -> float:
        """The global weight estimate ``Ŵ`` currently known to all sites."""
        return self._broadcast_weight

    def _reporting_rate(self) -> float:
        """The per-unit-weight reporting rate ``p = 2√m / (ε·Ŵ)`` (capped at 1)."""
        if self._broadcast_weight <= 0.0:
            return 1.0
        rate = 2.0 * math.sqrt(self.num_sites) / (self.epsilon * self._broadcast_weight)
        return min(1.0, rate)

    def _report_level(self, state) -> float:
        """The local total at which the site reports next."""
        return max(self._first_report, 2.0 * state.weight_at_last_report)

    def _maybe_report_total(self, site: int, state) -> None:
        """Report the site's local total weight whenever it has doubled."""
        if state.local_weight >= self._report_level(state):
            delta = state.local_weight - state.weight_at_last_report
            state.weight_at_last_report = state.local_weight
            self.network.send_scalar(site, description="local weight doubled")
            self._reported_weight += delta
            needs_broadcast = (
                self._broadcast_weight <= 0.0
                or self._reported_weight >= 2.0 * self._broadcast_weight
            )
            if needs_broadcast:
                self._broadcast_weight = self._reported_weight
                self.network.broadcast(description="updated global weight estimate")

    def _flip_coin(self, site: int, weight: float) -> Optional[float]:
        """One arrival of ``weight`` at ``site``: the rate if the site reports it.

        The site's total grows (and may report its doubling) before the
        coin, so the coin uses the refreshed rate; ``None`` means no report.
        """
        state = self._sites[site]
        state.local_weight += weight
        self._maybe_report_total(site, state)
        rate = self._reporting_rate()
        send_probability = 1.0 - math.exp(-rate * weight) if rate < 1.0 else 1.0
        if self._site_rngs[site].uniform(0.0, 1.0) <= send_probability:
            return rate
        return None

    def _coin_walk(self, site: int, weights: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coins of a site batch: ``(send_mask, rates, cumulative)``.

        The rate changes only when the coordinator broadcasts, which within
        one site batch can only follow a doubling of the site's total.  The
        batch is walked doubling to doubling with binary searches on
        ``cumulative`` (the site's running total after each arrival), and
        every coin of a constant-rate segment is decided vectorized from one
        block of uniforms: the same RNG stream, in the same order, as
        :meth:`_flip_coin` per arrival.  ``rates[i]`` is the rate arrival
        ``i`` was flipped under.
        """
        count = weights.shape[0]
        state = self._sites[site]
        uniforms = self._site_rngs[site].uniform(0.0, 1.0, size=count)
        cumulative = state.local_weight + np.cumsum(weights)
        send_mask = np.zeros(count, dtype=bool)
        rates = np.empty(count, dtype=np.float64)
        start = 0
        while start < count:
            trigger = first_crossing(cumulative, self._report_level(state),
                                     start=start)
            stop = min(trigger, count)
            if stop > start:
                rate = self._reporting_rate()
                segment = slice(start, stop)
                rates[segment] = rate
                if rate < 1.0:
                    send_mask[segment] = (
                        uniforms[segment] <= 1.0 - np.exp(-rate * weights[segment])
                    )
                else:
                    send_mask[segment] = True
            if trigger >= count:
                break
            # The trigger arrival reports the doubled total before its coin
            # flip, so its send probability uses the refreshed rate.  The
            # crossing guarantees the doubling, so the report fires.
            state.local_weight = float(cumulative[trigger])
            self._maybe_report_total(site, state)
            rate = self._reporting_rate()
            rates[trigger] = rate
            if rate < 1.0:
                probability = 1.0 - math.exp(-rate * float(weights[trigger]))
                send_mask[trigger] = bool(uniforms[trigger] <= probability)
            else:
                send_mask[trigger] = True
            start = trigger + 1
        state.local_weight = float(cumulative[-1])
        return send_mask, rates, cumulative
