"""The streaming engine: feeding partitioned streams into distributed protocols.

The protocols in this library are synchronous (a site reacts to each arriving
item immediately, possibly triggering coordinator work in the same step), so
"running" a protocol means replaying a stream into it.  The engine adds

* uniform handling of the different stream item shapes (per-item objects,
  tuples, raw rows, and the columnar batches of
  :mod:`repro.streaming.items`),
* *chunked ingestion*: by default the stream is consumed in chunks of
  :data:`DEFAULT_CHUNK_SIZE` items that are dispatched through
  ``DistributedProtocol.observe_batch``, which is an order of magnitude
  faster than per-item dispatch for protocols with vectorized kernels,
* an optional *query schedule*: the caller can pass a set of item counts at
  which a user-supplied query callback is invoked, matching the paper's
  "continuous queries at arbitrary time instances" evaluation.  Chunks are
  split at scheduled query boundaries, so every query observes the protocol
  after *exactly* the scheduled number of items regardless of chunk size, and
* a trace of the communication cost over time, which several figures need.

Counting semantics: the engine is the single source of truth for the item
counts it reports.  ``RunResult.items_processed`` and every
``QueryObservation.items_processed`` count the items *this run* fed into the
protocol — they are maintained by the engine itself rather than read back
from ``protocol.items_processed``, so a protocol that was fed items before
the run (or that counts observations differently) can neither duplicate nor
skip the final scheduled query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..utils.validation import check_site_type
from .items import MatrixRowBatch, WeightedItemBatch
from .partition import Partitioner, RoundRobinPartitioner
from .protocol import DistributedProtocol

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "QueryObservation",
    "RunResult",
    "StreamingEngine",
]

DEFAULT_CHUNK_SIZE = 4096


@dataclass(frozen=True)
class QueryObservation:
    """The outcome of one scheduled query during a run."""

    items_processed: int
    total_messages: int
    result: Any


@dataclass
class RunResult:
    """Summary of one protocol run over one stream."""

    protocol: DistributedProtocol
    items_processed: int
    total_messages: int
    message_counts: Dict[str, int]
    observations: List[QueryObservation] = field(default_factory=list)

    @property
    def final_observation(self) -> Optional[QueryObservation]:
        """The last scheduled query outcome, if any query was scheduled."""
        if not self.observations:
            return None
        return self.observations[-1]


def _is_columnar(stream: Any) -> bool:
    """True for stream containers the engine can slice without materialising items."""
    return isinstance(stream, (WeightedItemBatch, MatrixRowBatch)) or (
        isinstance(stream, np.ndarray) and stream.ndim == 2
    )


class StreamingEngine:
    """Chunked stream-ingestion engine for distributed protocols.

    Parameters
    ----------
    chunk_size:
        Number of items dispatched per ``observe_batch`` call.  ``None``
        selects per-item dispatch through ``observe`` (the historical
        runner's exact semantics); the default is
        :data:`DEFAULT_CHUNK_SIZE`.
    """

    def __init__(self, chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE):
        if chunk_size is not None and int(chunk_size) <= 0:
            raise ValueError(f"chunk_size must be positive or None, got {chunk_size!r}")
        self._chunk_size = int(chunk_size) if chunk_size is not None else None

    @property
    def chunk_size(self) -> Optional[int]:
        """The configured chunk size (``None`` = per-item dispatch)."""
        return self._chunk_size

    def run(
        self,
        protocol: DistributedProtocol,
        stream: Iterable[Any],
        partitioner: Optional[Partitioner] = None,
        query_at: Optional[Sequence[int]] = None,
        query: Optional[Callable[[DistributedProtocol], Any]] = None,
        query_at_end: bool = True,
    ) -> RunResult:
        """Feed ``stream`` into ``protocol`` and run any scheduled queries.

        Parameters
        ----------
        protocol:
            Any :class:`~repro.streaming.protocol.DistributedProtocol`.
        stream:
            A columnar batch (:class:`~repro.streaming.items.WeightedItemBatch`,
            :class:`~repro.streaming.items.MatrixRowBatch`, or a 2-d row
            array) — the fast path — or any iterable of stream items
            (``WeightedItem``, ``MatrixRow``, tuples or raw rows).  Items
            that already carry a ``site`` are routed to it; otherwise the
            ``partitioner`` decides.
        partitioner:
            Site assignment policy; defaults to round-robin over the
            protocol's ``num_sites``.
        query_at:
            Item counts (1-based, relative to this run) after which ``query``
            is invoked.  Chunks are split at these boundaries.
        query:
            Callback evaluated on the protocol at each scheduled query point.
        query_at_end:
            If True and ``query`` is given, one extra query is made after the
            entire stream is consumed, unless the last scheduled query
            already fell on the final item.
        """
        partitioner = self._check_partitioner(protocol, partitioner)
        schedule = sorted(set(query_at)) if query_at else []
        state = _RunState(protocol, query, schedule)

        if self._chunk_size is None:
            self._run_per_item(protocol, stream, partitioner, state)
        elif _is_columnar(stream):
            self._run_columnar(protocol, stream, partitioner, state)
        else:
            self._run_chunked(protocol, stream, partitioner, state)

        if query is not None and query_at_end:
            last = state.observations[-1] if state.observations else None
            if last is None or last.items_processed != state.processed:
                state.observe_now()

        return RunResult(
            protocol=protocol,
            items_processed=state.processed,
            total_messages=protocol.total_messages,
            message_counts=protocol.message_counts(),
            observations=state.observations,
        )

    # ------------------------------------------------------------ dispatchers
    def _run_per_item(self, protocol, stream, partitioner, state) -> None:
        """Historical per-item dispatch (exact arrival-order semantics)."""
        for index, item in enumerate(stream):
            site = getattr(item, "site", None)
            if site is None:
                site = partitioner.assign(index, item)
            protocol.observe(site, item)
            state.advance(1)

    def _run_columnar(self, protocol, stream, partitioner, state) -> None:
        """Slice a columnar batch directly — no per-item objects at all."""
        total = len(stream)
        sites = getattr(stream, "sites", None)
        start = 0
        while start < total:
            stop = min(start + self._chunk_size, total, state.next_boundary())
            segment = stream[start:stop]
            if sites is not None:
                segment_sites = sites[start:stop]
            else:
                segment_sites = partitioner.assign_batch(
                    np.arange(start, stop, dtype=np.int64), segment
                )
            protocol.observe_batch(segment_sites, segment)
            state.advance(stop - start)
            start = stop

    def _run_chunked(self, protocol, stream, partitioner, state) -> None:
        """Buffer a generic iterable into chunks and dispatch them batched."""
        iterator = iter(stream)
        index = 0
        while True:
            buffered = list(_take(iterator, self._chunk_size))
            if not buffered:
                return
            start = 0
            while start < len(buffered):
                stop = min(len(buffered), state.next_boundary() - index + start)
                segment = buffered[start:stop]
                explicit = [getattr(item, "site", None) for item in segment]
                if all(site is None for site in explicit):
                    sites = partitioner.assign_batch(
                        np.arange(index, index + len(segment), dtype=np.int64),
                        segment,
                    )
                else:
                    sites = np.asarray(
                        [
                            check_site_type(site) if site is not None
                            else partitioner.assign(index + offset, item)
                            for offset, (site, item) in enumerate(zip(explicit, segment))
                        ],
                        dtype=np.int64,
                    )
                protocol.observe_batch(sites, segment)
                state.advance(len(segment))
                index += len(segment)
                start = stop

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _check_partitioner(protocol: DistributedProtocol,
                           partitioner: Optional[Partitioner]) -> Partitioner:
        if partitioner is None:
            return RoundRobinPartitioner(protocol.num_sites)
        if partitioner.num_sites != protocol.num_sites:
            raise ValueError(
                f"partitioner has {partitioner.num_sites} sites but protocol has "
                f"{protocol.num_sites}"
            )
        return partitioner


class _RunState:
    """Run-local bookkeeping: the item count and the query schedule.

    ``processed`` is the engine's single source of truth for how many items
    this run has fed into the protocol; scheduled and end-of-stream queries
    are both driven by it.
    """

    def __init__(self, protocol: DistributedProtocol,
                 query: Optional[Callable[[DistributedProtocol], Any]],
                 schedule: List[int]):
        self._protocol = protocol
        self._query = query
        self._schedule = schedule
        self._position = 0
        self.processed = 0
        self.observations: List[QueryObservation] = []

    def next_boundary(self) -> int:
        """The next scheduled query count, or a sentinel past any stream."""
        if self._query is None:
            return 2 ** 63 - 1
        while (self._position < len(self._schedule)
               and self._schedule[self._position] <= self.processed):
            self._position += 1
        if self._position < len(self._schedule):
            return self._schedule[self._position]
        return 2 ** 63 - 1

    def advance(self, count: int) -> None:
        """Record ``count`` newly ingested items and run any due queries."""
        self.processed += count
        while (self._query is not None and self._position < len(self._schedule)
               and self._schedule[self._position] <= self.processed):
            self.observe_now()
            self._position += 1

    def observe_now(self) -> None:
        """Record one query observation at the current item count."""
        self.observations.append(
            QueryObservation(
                items_processed=self.processed,
                total_messages=self._protocol.total_messages,
                result=self._query(self._protocol),
            )
        )


def _take(iterator: Iterator, count: int) -> Iterator:
    """Yield up to ``count`` items from ``iterator``."""
    for _ in range(count):
        try:
            yield next(iterator)
        except StopIteration:
            return
