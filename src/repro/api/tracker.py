"""The ``Tracker`` session facade: one front door over protocol + engine.

A :class:`Tracker` owns a distributed protocol together with a
:class:`~repro.streaming.runner.StreamingEngine` and a partitioner, and
exposes the whole lifecycle of a continuous-tracking session:

* **Ingestion** — ``push(site, item)`` for single items,
  ``push_batch(site_ids, items)`` for explicit-site chunks, and
  ``run(source)`` for whole streams (columnar batches are sliced zero-copy
  through the batched engine; the partitioner assigns sites, continuing its
  index sequence across multiple ``run`` calls so that two half-stream runs
  equal one full-stream run).
* **Queries** — ``query(HeavyHitters(phi=0.05))``,
  ``query(Covariance())``, ``query(Norms(x))`` … returning frozen
  :class:`~repro.api.queries.Answer` dataclasses with the estimate, the
  paper's error bound and a message/items snapshot.
* **Introspection** — ``stats()`` and a debuggable ``repr`` showing the spec
  name, key parameters, items processed and message count.
* **Checkpointing** — ``save(path)`` / ``Tracker.load(path)``: a restored
  tracker continues bit-identically (same messages, same seeded draws) to
  one that never stopped.  See :mod:`repro.api.state`.

Build trackers from registry specs::

    tracker = Tracker.create("hh/P2", num_sites=50, epsilon=0.01)
    tracker.run(stream)
    answer = tracker.query(HeavyHitters(phi=0.05))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import LATENCY_BUCKETS, REGISTRY
from ..streaming.partition import Partitioner, RoundRobinPartitioner
from ..streaming.protocol import DistributedProtocol
from ..streaming.runner import DEFAULT_CHUNK_SIZE, RunResult, StreamingEngine
from .cache import DEFAULT_CACHE_SIZE
from .queries import Query
from .registry import create as _create_protocol
from .registry import domain_of, spec_name_for
from .session import Session

__all__ = ["Tracker", "TrackerStats"]

#: Session telemetry.  Points are recorded per call / per chunk (never per
#: item inside the engine's hot loops) and only when the process registry
#: is enabled; answers and seeded draws are never touched.
_PUSHES = REGISTRY.counter(
    "repro_tracker_pushes_total",
    "Ingestion calls (push, push_batch, or run instalments)", labels=("spec",))
_ITEMS = REGISTRY.counter(
    "repro_tracker_items_total", "Stream items ingested", labels=("spec",))
_QUERIES = REGISTRY.counter(
    "repro_tracker_queries_total", "Typed queries answered",
    labels=("spec", "kind"))
_CHECKPOINT_BYTES = REGISTRY.counter(
    "repro_tracker_checkpoint_bytes_total",
    "Checkpoint bytes written by save()", labels=("spec",))
_CHECKPOINT_SECONDS = REGISTRY.histogram(
    "repro_tracker_checkpoint_seconds", "Checkpoint save wall time",
    labels=("spec",), buckets=LATENCY_BUCKETS)


@dataclass(frozen=True)
class TrackerStats:
    """Introspection snapshot of one tracker session."""

    spec: Optional[str]
    protocol: str
    domain: str
    num_sites: int
    epsilon: Optional[float]
    items_processed: int
    total_messages: int
    message_counts: Dict[str, int]
    chunk_size: Optional[int]


class _OffsetPartitioner(Partitioner):
    """Shift a partitioner's item indices by the items already ingested.

    ``StreamingEngine.run`` numbers the items of each call from zero; a
    tracker that runs a stream in several instalments must keep the *global*
    index sequence so index-determined partitioners (round-robin, block)
    assign exactly as they would over one uninterrupted run.
    """

    def __init__(self, inner: Partitioner, offset: int):
        super().__init__(inner.num_sites)
        self._inner = inner
        self._offset = int(offset)

    def assign(self, index: int, item: Any) -> int:
        return self._inner.assign(index + self._offset, item)

    def assign_batch(self, indices: Sequence[int], items: Sequence[Any]) -> np.ndarray:
        shifted = np.asarray(indices, dtype=np.int64) + self._offset
        return self._inner.assign_batch(shifted, items)


class Tracker(Session):
    """A continuous-tracking session over one distributed protocol.

    Parameters
    ----------
    protocol:
        Any :class:`~repro.streaming.protocol.DistributedProtocol`.  Prefer
        :meth:`Tracker.create`, which resolves a registry spec name.
    spec:
        The registry spec name the protocol was built from (recorded for
        ``repr``/``stats``/checkpoints; inferred from the class when omitted).
    params:
        The spec parameters used (recorded for introspection/checkpoints).
    chunk_size:
        Engine chunk size for ``run``; ``None`` selects per-item dispatch.
    partitioner:
        Site-assignment policy for ``run``; defaults to round-robin.
    cache_size:
        Answer-cache capacity (see :class:`~repro.api.cache.AnswerCache`):
        queries repeated at an unchanged :attr:`watermark` return the
        same frozen answer without re-evaluation.  ``cache_size=0``
        disables caching entirely.
    """

    _queries_total = _QUERIES
    _checkpoint_bytes_total = _CHECKPOINT_BYTES
    _checkpoint_seconds = _CHECKPOINT_SECONDS

    def __init__(self, protocol: DistributedProtocol, *,
                 spec: Optional[str] = None,
                 params: Optional[Dict[str, Any]] = None,
                 chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE,
                 partitioner: Optional[Partitioner] = None,
                 cache_size: int = DEFAULT_CACHE_SIZE):
        if not isinstance(protocol, DistributedProtocol):
            raise TypeError(
                f"protocol must be a DistributedProtocol, got "
                f"{type(protocol).__name__}"
            )
        if spec is None:
            spec = spec_name_for(protocol)
        super().__init__(spec, domain_of(protocol), params,
                         label=spec or type(protocol).__name__,
                         cache_size=cache_size)
        self._protocol = protocol
        self._engine = StreamingEngine(chunk_size=chunk_size)
        if partitioner is None:
            partitioner = RoundRobinPartitioner(protocol.num_sites)
        elif partitioner.num_sites != protocol.num_sites:
            raise ValueError(
                f"partitioner has {partitioner.num_sites} sites but protocol "
                f"has {protocol.num_sites}"
            )
        self._partitioner = partitioner

    # ---------------------------------------------------------- construction
    @classmethod
    def create(cls, spec: str, *,
               chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE,
               partitioner: Optional[Partitioner] = None,
               cache_size: int = DEFAULT_CACHE_SIZE,
               **params: Any) -> "Tracker":
        """Build a tracker from a registry spec name plus spec parameters.

        Examples
        --------
        >>> tracker = Tracker.create("hh/P1", num_sites=10, epsilon=0.05)
        >>> tracker.spec
        'hh/P1'
        """
        protocol = _create_protocol(spec, **params)
        return cls(protocol, spec=spec, params=params, chunk_size=chunk_size,
                   partitioner=partitioner, cache_size=cache_size)

    # ------------------------------------------------------------ properties
    @property
    def protocol(self) -> DistributedProtocol:
        """The underlying protocol (escape hatch for protocol-specific APIs)."""
        return self._protocol

    @property
    def partitioner(self) -> Partitioner:
        """The session's site-assignment policy for ``run``."""
        return self._partitioner

    @property
    def chunk_size(self) -> Optional[int]:
        """The engine chunk size (``None`` = per-item dispatch)."""
        return self._engine.chunk_size

    @property
    def items_processed(self) -> int:
        """Stream items ingested over the whole session (across save/load)."""
        return self._protocol.items_processed

    @property
    def total_messages(self) -> int:
        """Total message units exchanged (the paper's ``msg`` metric)."""
        return self._protocol.total_messages

    @property
    def watermark(self) -> Tuple[int]:
        """``(items_processed,)``, read live from the protocol, so ingest
        through the :attr:`protocol` escape hatch moves it too."""
        return (self._protocol.items_processed,)

    # -------------------------------------------------------------- ingestion
    def push(self, site: int, item: Any) -> None:
        """Ingest one stream item at ``site``.

        ``item`` is anything ``DistributedProtocol.observe`` accepts: a
        ``WeightedItem``/``(element, weight)`` tuple for heavy-hitter
        sessions, a ``MatrixRow``/raw row for matrix sessions.
        """
        self._protocol.observe(site, item)
        if REGISTRY.enabled:
            _PUSHES.inc(spec=self._metric_spec)
            _ITEMS.inc(spec=self._metric_spec)

    def push_batch(self, site_ids: Sequence[int], items: Any) -> None:
        """Ingest a chunk of items with explicit per-item site assignments."""
        self._protocol.observe_batch(site_ids, items)
        if REGISTRY.enabled:
            _PUSHES.inc(spec=self._metric_spec)
            _ITEMS.inc(len(site_ids), spec=self._metric_spec)

    def run(self, source: Any,
            query: Optional[Callable[[DistributedProtocol], Any]] = None,
            query_at: Optional[Sequence[int]] = None,
            query_at_end: bool = True) -> RunResult:
        """Feed a whole stream (or the next instalment of one) into the session.

        ``source`` is a columnar batch (``WeightedItemBatch``,
        ``MatrixRowBatch``, a 2-d row array — the fast path) or any iterable
        of stream items.  Items carrying an explicit ``site`` keep it;
        everything else is assigned by the session partitioner, whose global
        item index continues across calls — running a stream in two halves
        is equivalent to one uninterrupted run.

        ``query``/``query_at`` schedule continuous queries exactly as
        :meth:`StreamingEngine.run` does; the returned
        :class:`~repro.streaming.runner.RunResult` covers this instalment.
        """
        partitioner: Partitioner = self._partitioner
        if self._protocol.items_processed:
            partitioner = _OffsetPartitioner(partitioner,
                                             self._protocol.items_processed)
        items_before = self._protocol.items_processed
        result = self._engine.run(self._protocol, source,
                                  partitioner=partitioner,
                                  query_at=query_at, query=query,
                                  query_at_end=query_at_end)
        if REGISTRY.enabled:
            _PUSHES.inc(spec=self._metric_spec)
            _ITEMS.inc(self._protocol.items_processed - items_before,
                       spec=self._metric_spec)
        return result

    # ---------------------------------------------------------------- queries
    # ``Session.query`` unchanged, but bound on this class too: the
    # benchmark harness patches ``Tracker.query`` and
    # ``ShardedTracker.query`` separately through each class's own dict.
    query = Session.query

    def _parts(self, query: Query, partial: bool
               ) -> Tuple[List[Dict[str, Any]], Sequence[int]]:
        if partial:
            raise ValueError("partial=True needs a sharded session; a plain "
                             "Tracker has no shards that could be missing")
        return [query.materials(self._protocol)], ()

    def stats(self) -> TrackerStats:
        """A snapshot of the session for dashboards/logging."""
        return TrackerStats(
            spec=self._spec,
            protocol=type(self._protocol).__name__,
            domain=self._domain,
            num_sites=self._protocol.num_sites,
            epsilon=getattr(self._protocol, "epsilon", None),
            items_processed=self._protocol.items_processed,
            total_messages=self._protocol.total_messages,
            message_counts=self._protocol.message_counts(),
            chunk_size=self._engine.chunk_size,
        )

    # ----------------------------------------------------------- persistence
    def save(self, path: Any, *, compress: bool = True) -> None:
        """Checkpoint the whole session to ``path`` (see ``repro.api.state``).

        ``compress`` (default on) compresses the checkpoint frame.
        """
        from .state import save_tracker

        with self._timed_save(path):
            save_tracker(self, path, compress=compress)

    @classmethod
    def load(cls, path: Any) -> "Tracker":
        """Restore a session checkpointed with :meth:`save`.

        The restored tracker continues bit-identically — same messages, same
        seeded draws, same query answers — as one that never stopped.
        Checkpoints are wire frames (see :mod:`repro.wire`).
        """
        from .state import load_tracker

        return load_tracker(path)

    def __repr__(self) -> str:
        parts = []
        if self._spec is not None:
            parts.append(f"spec={self._spec!r}")
        else:
            parts.append(f"protocol={type(self._protocol).__name__}")
        parts.append(f"num_sites={self._protocol.num_sites}")
        epsilon = getattr(self._protocol, "epsilon", None)
        if epsilon is not None:
            parts.append(f"epsilon={epsilon:g}")
        for name, value in sorted(self._params.items()):
            if name in ("num_sites", "epsilon"):
                continue
            parts.append(f"{name}={value!r}")
        parts.append(f"items_processed={self._protocol.items_processed}")
        parts.append(f"total_messages={self._protocol.total_messages}")
        return f"Tracker({', '.join(parts)})"
