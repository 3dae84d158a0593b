"""Distributed priority sampling, payload-agnostic (Sections 4.3, 4.3.1, 5.3).

The paper defines the matrix protocols P3/P3wr as the weighted heavy-hitter
protocols P3/P3wr run on item weight ``w = ‖a‖²``, so the sampling decision
lives here once and both families adapt it.  An adapter is a protocol class
that mixes in one of the two coordinators below and says only what differs
per family: which arrivals are candidates and their weights, the payload
kept for each (an element label, a row copy), the message-log description
of a forwarded payload (a ``_sample_description(payload)`` method), and how
the adjusted sample ``[(payload, weight, adjusted weight)]`` is read out.

Without replacement (:class:`WithoutReplacementSampling`)
    Every site draws, for each arriving item of weight ``w``, a priority
    ``ρ = w/r`` with ``r ~ Uniform(0,1)`` and forwards the item whenever
    ``ρ ≥ τ``, where ``τ`` is a global threshold owned by the coordinator
    (initially 1).  The coordinator keeps two queues ``Q_j`` (priorities in
    ``[τ, 2τ]``) and ``Q_{j+1}`` (priorities ``> 2τ``); when ``Q_{j+1}``
    reaches the sample size ``s`` it doubles ``τ``, broadcasts it, discards
    ``Q_j`` and re-partitions ``Q_{j+1}``.  Estimates use the
    priority-sampling estimator: with ``ρ̂`` the smallest retained priority,
    every other retained item counts ``max(w, ρ̂)``.

With replacement (:class:`WithReplacementSampling`)
    ``s`` independent samplers are run; a site forwards an item whenever any
    sampler's priority clears the threshold, and the coordinator keeps, per
    sampler, the best item and the second-best priority.  A round ends when
    every sampler's second-best priority exceeds ``2τ``; the mean second
    priority estimates the total weight ``Ŵ`` and every retained item counts
    ``Ŵ/s``.

Both draw all priorities of a site batch in one block from the site's
generator — the same RNG stream, consumed in the same per-item order, as
item-at-a-time ingestion — so with a fixed seed the message sequence and
the coordinator sample match the per-item path over the same site-grouped
order exactly.

The mixins keep their state on the protocol and add it to the protocol's
declared checkpoint (``state_dict``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..sketch.priority_sampler import sample_size_for_epsilon
from ..utils.rng import SeedLike, as_generator, spawn
from ..utils.validation import check_positive_int

__all__ = ["WithReplacementSampling", "WithoutReplacementSampling"]

#: One entry of the adjusted sample: ``(payload, weight, adjusted weight)``.
AdjustedItem = Tuple[Any, float, float]


class _ThresholdSampling:
    """What both variants share: site generators, ``τ`` and the batch loop."""

    STATE = {"threshold": "_threshold", "round": "_round",
             "is_exact": "_is_exact"}

    def _resolve_size(self, size: Optional[int], sample_constant: float,
                      name: str) -> int:
        """``size``, or the paper's ``Θ((1/ε²)·log(1/ε))`` default, validated."""
        if size is None:
            size = sample_size_for_epsilon(self._epsilon, sample_constant)
        return check_positive_int(size, name=name)

    def _init_threshold(self, seed: SeedLike) -> None:
        self._site_rngs = spawn(as_generator(seed), self._num_sites)
        # Global threshold τ, known to all sites (broadcast on change).
        self._threshold = 1.0
        self._round = 0

    @property
    def threshold(self) -> float:
        """Current global priority threshold ``τ``."""
        return self._threshold

    @property
    def coordinator_epoch(self) -> int:
        """Twice the message count, plus one once exact mode has ended.

        A site ends exact mode by *dropping* an item, which sends nothing
        but changes every answer the coordinator reads out (the sample is
        no longer the whole stream), so the epoch counts it beside the
        messages.
        """
        return 2 * self.total_messages + (not self._is_exact)

    @property
    def rounds_completed(self) -> int:
        """Number of threshold doublings performed so far."""
        return self._round

    def _double_threshold(self) -> None:
        self._round += 1
        self._threshold *= 2.0
        self.network.broadcast(description=f"new threshold {self._threshold:g}")

    def _forward_accepted(self, best_priorities: np.ndarray,
                          forward: Callable[[int], None]) -> None:
        """The accept / re-filter loop of a site batch.

        Given each item's best priority, skip rejected items wholesale and
        hand accepted ones to ``forward(index)`` in arrival order, one at a
        time because each can end the round at the coordinator and double
        ``τ`` — the unprocessed tail is then re-filtered against the new
        value.  ``_is_exact`` drops at the first skipped item and *before*
        any later ``forward`` call, an ordering the with-replacement
        coordinator relies on (its exact-mode bookkeeping reads the flag
        inside the receive path).
        """
        count = best_priorities.shape[0]
        position = 0
        while position < count:
            threshold = self._threshold
            accepted = position + np.nonzero(
                best_priorities[position:] >= threshold)[0]
            if accepted.size == 0:
                self._is_exact = False
                return
            for index in accepted:
                if self._threshold != threshold:
                    break  # a round ended mid-batch: re-filter the tail
                index = int(index)
                if index > position:
                    self._is_exact = False  # items in between fell below τ
                forward(index)
                position = index + 1
            else:
                if position < count:
                    self._is_exact = False  # trailing items fell below τ
                position = count


class WithoutReplacementSampling(_ThresholdSampling):
    """Priority sampling without replacement: sites and two-queue coordinator."""

    #: The queues: lists of ``(payload, weight, priority)``.
    STATE = {"current_queue": "_current_queue", "next_queue": "_next_queue"}

    def _init_sampling(self, sample_size: Optional[int], sample_constant: float,
                       seed: SeedLike) -> None:
        self._sample_size = self._resolve_size(sample_size, sample_constant,
                                               "sample_size")
        self._init_threshold(seed)
        # Coordinator queues of (payload, weight, priority) triples.
        self._current_queue: List[Tuple[Any, float, float]] = []
        self._next_queue: List[Tuple[Any, float, float]] = []
        # True until the first rejection or round-end discard: while exact, the
        # coordinator has received every stream item and answers exactly.
        self._is_exact = True

    def _repr_params(self) -> Dict[str, Any]:
        params = super()._repr_params()
        params["sample_size"] = self._sample_size
        return params

    @property
    def sample_size(self) -> int:
        """Coordinator sample size ``s``."""
        return self._sample_size

    # ---------------------------------------------------------------- site side
    def _sample_item(self, site: int, payload: Any, weight: float) -> None:
        """One item of positive ``weight`` arrives at ``site``."""
        rng = self._site_rngs[site]
        uniform = rng.uniform(0.0, 1.0)
        while uniform <= 0.0:  # pragma: no cover - measure-zero event
            uniform = rng.uniform(0.0, 1.0)
        priority = weight / uniform
        if priority < self._threshold:
            self._is_exact = False
            return
        self.network.send_vector(site,
                                 description=self._sample_description(payload))
        self._receive(payload, weight, priority)

    def _sample_batch(self, site: int, weights: np.ndarray,
                      payload_at: Callable[[int], Any]) -> None:
        """Items of positive ``weights`` arrive at ``site`` in this order;
        ``payload_at(index)`` is called only for the ones forwarded."""
        count = weights.shape[0]
        if count == 0:
            return
        rng = self._site_rngs[site]
        uniforms = rng.uniform(0.0, 1.0, size=count)
        invalid = uniforms <= 0.0
        while np.any(invalid):  # pragma: no cover - measure-zero event
            uniforms[invalid] = rng.uniform(0.0, 1.0, size=int(invalid.sum()))
            invalid = uniforms <= 0.0
        priorities = weights / uniforms

        def forward(index: int) -> None:
            payload = payload_at(index)
            self.network.send_vector(
                site, description=self._sample_description(payload))
            self._receive(payload, float(weights[index]),
                          float(priorities[index]))

        self._forward_accepted(priorities, forward)

    # --------------------------------------------------------- coordinator side
    def _receive(self, payload: Any, weight: float, priority: float) -> None:
        if priority > 2.0 * self._threshold:
            self._next_queue.append((payload, weight, priority))
        else:
            self._current_queue.append((payload, weight, priority))
        if len(self._next_queue) >= self._sample_size:
            self._advance_round()

    def _advance_round(self) -> None:
        """Double the threshold, notify the sites and re-partition the queues."""
        self._double_threshold()
        if self._current_queue:
            self._is_exact = False
        promoted = [item for item in self._next_queue
                    if item[2] > 2.0 * self._threshold]
        remaining = [item for item in self._next_queue
                     if item[2] <= 2.0 * self._threshold]
        self._current_queue = remaining
        self._next_queue = promoted

    # ----------------------------------------------------------------- read-out
    def _adjusted_sample(self) -> List[AdjustedItem]:
        """The retained items with their priority-sampling estimator weights.

        The lowest-priority retained item defines ``ρ̂`` and is dropped;
        while exact (or with a single item) the weights stand unadjusted.
        """
        retained = self._current_queue + self._next_queue
        if self._is_exact or len(retained) <= 1:
            return [(payload, weight, weight) for payload, weight, _ in retained]
        drop_index = min(range(len(retained)), key=lambda i: retained[i][2])
        rho_hat = retained[drop_index][2]
        return [
            (payload, weight, max(weight, rho_hat))
            for index, (payload, weight, _) in enumerate(retained)
            if index != drop_index
        ]

    def _estimated_total(self) -> float:
        """Estimate of the total stream weight: the adjusted weights' sum."""
        return sum(adjusted for _, _, adjusted in self._adjusted_sample())


class _SamplerSlot:
    """Coordinator state of one independent with-replacement sampler."""

    __slots__ = ("best_payload", "best_weight", "best_priority",
                 "second_priority")

    def __init__(self) -> None:
        self.best_payload: Any = None
        self.best_weight = 0.0
        self.best_priority = 0.0
        self.second_priority = 0.0

    def offer(self, payload: Any, weight: float, priority: float) -> None:
        """Consider a forwarded item for this sampler."""
        if priority > self.best_priority:
            self.second_priority = max(self.second_priority, self.best_priority)
            self.best_payload = payload
            self.best_weight = weight
            self.best_priority = priority
        elif priority > self.second_priority:
            self.second_priority = priority


class WithReplacementSampling(_ThresholdSampling):
    """``s`` independent samplers: sites and per-sampler top-two coordinator."""

    #: The exact-mode sample: ``(payload, weight)`` pairs, and its total.
    STATE = {"exact_sample": "_exact_sample", "exact_total": "_exact_total"}

    def _init_sampling(self, num_samplers: Optional[int], sample_constant: float,
                       seed: SeedLike) -> None:
        self._num_samplers = self._resolve_size(num_samplers, sample_constant,
                                                "num_samplers")
        self._init_threshold(seed)
        self._slots = [_SamplerSlot() for _ in range(self._num_samplers)]
        # While True the coordinator has seen every item and keeps them all
        # alongside the samplers, so early queries are exact (as in the paper,
        # where small streams are simply forwarded).
        self._is_exact = True
        self._exact_sample: List[Tuple[Any, float]] = []
        self._exact_total = 0.0

    def _repr_params(self) -> Dict[str, Any]:
        params = super()._repr_params()
        params["num_samplers"] = self._num_samplers
        return params

    @property
    def num_samplers(self) -> int:
        """Number of independent samplers ``s``."""
        return self._num_samplers

    def state_dict(self) -> Dict[str, Any]:
        """Also the sampler slots: their payloads, and an ``(s, 3)`` array
        of best weight, best priority and second priority."""
        return {**super().state_dict(),
                "slot_payloads": [slot.best_payload for slot in self._slots],
                "slot_values": np.array([
                    (slot.best_weight, slot.best_priority,
                     slot.second_priority) for slot in self._slots])}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        for slot, payload, values in zip(
                self._slots, state["slot_payloads"],
                state["slot_values"].tolist(), strict=True):
            slot.best_payload = payload
            slot.best_weight, slot.best_priority, slot.second_priority = values

    # ---------------------------------------------------------------- site side
    def _draw_priorities(self, site: int, weights: Any, shape: Any) -> np.ndarray:
        """``weights / r`` with ``r ~ Uniform(0,1)`` of ``shape``, ``s`` per item."""
        uniforms = self._site_rngs[site].uniform(0.0, 1.0, size=shape)
        return weights / np.clip(uniforms, 1e-300, None)

    def _sample_item(self, site: int, payload: Any, weight: float) -> None:
        """One item of positive ``weight`` arrives at ``site``."""
        priorities = self._draw_priorities(site, weight, self._num_samplers)
        successes = np.nonzero(priorities >= self._threshold)[0]
        if successes.size == 0:
            self._is_exact = False
            return
        self.network.send_vector(site,
                                 description=self._sample_description(payload))
        self._receive(payload, weight, successes, priorities[successes])

    def _sample_batch(self, site: int, weights: np.ndarray,
                      payload_at: Callable[[int], Any]) -> None:
        """Items of positive ``weights`` arrive at ``site`` in this order;
        ``payload_at(index)`` is called only for the ones forwarded.

        One ``(n, s)`` block draw replaces ``n`` per-item draws of ``s``
        uniforms; an item is forwarded when any of its ``s`` priorities
        clears ``τ``, together with the samplers it succeeded in.
        """
        count = weights.shape[0]
        if count == 0:
            return
        priorities = self._draw_priorities(site, weights[:, np.newaxis],
                                           (count, self._num_samplers))

        def forward(index: int) -> None:
            successes = np.nonzero(priorities[index] >= self._threshold)[0]
            payload = payload_at(index)
            self.network.send_vector(
                site, description=self._sample_description(payload))
            self._receive(payload, float(weights[index]),
                          successes, priorities[index][successes])

        self._forward_accepted(priorities.max(axis=1), forward)

    # --------------------------------------------------------- coordinator side
    def _receive(self, payload: Any, weight: float,
                 sampler_indices: np.ndarray, priorities: np.ndarray) -> None:
        if self._is_exact:
            self._exact_sample.append((payload, weight))
            self._exact_total += weight
        for sampler_index, priority in zip(sampler_indices, priorities):
            self._slots[int(sampler_index)].offer(payload, weight, float(priority))
        while all(slot.second_priority > 2.0 * self._threshold
                  for slot in self._slots):
            self._double_threshold()

    # ----------------------------------------------------------------- read-out
    def _adjusted_sample(self) -> List[AdjustedItem]:
        """Each sampler's retained item at weight ``Ŵ/s`` (every item,
        unadjusted, while exact)."""
        if self._is_exact:
            return [(payload, weight, weight)
                    for payload, weight in self._exact_sample]
        share = self._estimated_total() / self._num_samplers
        return [(slot.best_payload, slot.best_weight, share)
                for slot in self._slots if slot.best_payload is not None]

    def _estimated_total(self) -> float:
        """Estimate ``Ŵ`` of the total stream weight: the mean second-best
        priority (the running total while exact)."""
        if self._is_exact:
            return self._exact_total
        return float(np.mean([slot.second_priority for slot in self._slots]))
