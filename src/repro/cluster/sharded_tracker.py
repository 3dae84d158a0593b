"""``ShardedTracker``: one logical tracking session over ``N`` shards.

A shard is a complete single-coordinator deployment — a
:class:`~repro.api.tracker.Tracker` with its own protocol instance, message
accounting and (for the randomized protocols) its own seeded RNG streams —
over a **subset of the sites**: with ``m`` sites and ``S`` shards, shard
``s`` owns the sites ``{i : i mod S = s}`` and runs the protocol with
``len(range(s, m, S))`` of them (``⌈m/S⌉`` or ``⌊m/S⌋``).  That is the
paper's model applied recursively, and it keeps the paper's budget: the
``m`` (site, shard) pairs send at the unsharded threshold
``(ε/(m/S))·(F/S) = εF/m``, so the threshold protocols (``*/P1``, ``*/P2``)
spend one coordinator's messages however many shards there are, while the
bounds still sum (``Σ_s ε‖A_s‖²_F = ε‖A‖²_F``, ``Σ_s εW_s = εW``).  The
sampling protocols (``*/P3``, ``*/P3wr``) do **not** get cheaper: every
shard still draws its own ``s = O(1/ε²)`` sample, so their message count
stays near ``S×`` one coordinator's.  The sharded facade

* **resolves every item's global site once** — the caller's ``site_ids``
  (or a batch's own ``sites`` column) pass through, otherwise round-robin
  over one global item index that continues across calls and checkpoints —
  and **routes by site**: ``shard = site mod S``, ``local site = site div S``,
* **fans ingestion out** through a pluggable
  :class:`~repro.cluster.backends.EngineBackend` (``serial``, ``thread``,
  ``process`` or the multi-host ``socket`` backend), shipping columnar
  sub-batches as :mod:`repro.wire` frames and preserving per-shard FIFO
  order,
* **answers the typed queries** of :mod:`repro.api.queries` through the
  inherited :meth:`~repro.api.session.Session.query`: every shard whose
  items moved since its last part for that query reads ``query.materials``
  (the others' stored parts are reused, and a moved shard whose
  coordinator heard no message replies with its scalars only) and
  ``query.combine`` folds them all — counter-merge for
  heavy hitters, covariance/Frequent-Directions merge for matrix queries,
  with the combined error bound ``Σ_s ε·Ŵ_s`` / ``Σ_s ε·F̂_s`` and
  cluster-aggregated message/items accounting, and
* **checkpoints the whole cluster** into one versioned file (one
  :func:`~repro.api.state.tracker_payload` per shard) that restores
  bit-identically — under any backend, not just the one that saved it.

With ``shards=1`` every answer and every counter is bit-identical to a plain
``Tracker`` session (both are the one-part case of the same ``combine``),
which is the correctness anchor the test suite pins for every registered
spec.

Example::

    cluster = ShardedTracker.create("hh/P2", shards=4, backend="process",
                                    num_sites=20, epsilon=0.01)
    cluster.run(batch)
    answer = cluster.query(HeavyHitters(phi=0.05))   # merged, bounded
    cluster.save("cluster.ckpt")
    cluster.close()
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.cache import DEFAULT_CACHE_SIZE
from ..api.queries import Query
from ..api.registry import DOMAIN_HEAVY_HITTERS, get_spec
from ..api.session import Session, cache_key
from ..api.state import (
    CheckpointError,
    _read,
    _write,
    restorable_params,
    tracker_frame,
    tracker_from_frame,
)
from ..api.tracker import Tracker
from ..obs.metrics import LATENCY_BUCKETS, REGISTRY
from ..streaming.items import MatrixRowBatch, WeightedItemBatch
from ..streaming.runner import DEFAULT_CHUNK_SIZE
from ..utils.validation import check_positive_int, check_site, check_site_ids
from ..wire import WireEncodeError
from .backends import (
    BackendError,
    EngineBackend,
    create_backend,
    get_backend_spec,
)
from .merge import _shard_query, merge_message_counts
from .worker_protocol import worker_command

__all__ = ["ShardedTracker", "ShardedTrackerStats",
           "CLUSTER_CHECKPOINT_VERSION"]

#: Bump on incompatible changes to the cluster checkpoint layout.
CLUSTER_CHECKPOINT_VERSION = 2

_CLUSTER_FORMAT = "repro/cluster-checkpoint"

_RETIRED_VERSIONS = {
    1: "its row-dealt / element-hashed shards are full m-site coordinators "
       "and cannot resume under site sharding, where shard s owns sites "
       "s, s+S, ...; finish the session with the release that wrote it",
}

#: Deterministic spacing of derived per-shard seeds (shard 0 keeps the
#: user's seed so a one-shard cluster is bit-identical to a plain tracker).
_SEED_STRIDE = 7919

#: Parent-side cluster telemetry.  Shard-local work is counted worker-side
#: by the ``repro_tracker_*`` families (and shipped back on the metrics call
#: frames); these families count what the facade dispatched.
_CLUSTER_PUSHES = REGISTRY.counter(
    "repro_cluster_pushes_total",
    "Ingestion dispatches fanned out by the sharded facade", labels=("spec",))
_CLUSTER_ITEMS = REGISTRY.counter(
    "repro_cluster_items_total",
    "Stream items dispatched to shards", labels=("spec",))
_CLUSTER_QUERIES = REGISTRY.counter(
    "repro_cluster_queries_total", "Merged cluster queries answered",
    labels=("spec", "kind"))
_CLUSTER_CHECKPOINT_BYTES = REGISTRY.counter(
    "repro_cluster_checkpoint_bytes_total",
    "Cluster checkpoint bytes written by save()", labels=("spec",))
_CLUSTER_CHECKPOINT_SECONDS = REGISTRY.histogram(
    "repro_cluster_checkpoint_seconds", "Cluster checkpoint save wall time",
    labels=("spec",), buckets=LATENCY_BUCKETS)
#: Set per scrape from the shard replies ``metrics_snapshot`` fetches anyway:
#: the load balance and the paper's message budget, shard by shard.
_CLUSTER_SHARD_ITEMS = REGISTRY.gauge(
    "repro_cluster_shard_items", "Stream items ingested by each shard",
    labels=("spec", "shard"))
_CLUSTER_SHARD_MESSAGES = REGISTRY.gauge(
    "repro_cluster_shard_messages",
    "Protocol messages spent by each shard (the paper's msg metric)",
    labels=("spec", "shard"))


@dataclass(frozen=True)
class ShardedTrackerStats:
    """Cluster-wide introspection snapshot (sums over all shards)."""

    spec: str
    backend: str
    shards: int
    num_sites: int
    epsilon: Optional[float]
    chunk_size: Optional[int]
    items_processed: int
    total_messages: int
    message_counts: Dict[str, int]
    #: (items, messages) per shard; ``None`` for shards that were
    #: unreachable when the snapshot was taken (named in missing_shards).
    per_shard: Tuple[Optional[Tuple[int, int]], ...]
    #: Shards whose workers were unreachable; the sums above cover the
    #: live shards only.  Always empty on a healthy cluster.
    missing_shards: Tuple[int, ...] = ()


# ----------------------------------------------------- shard-side commands
# What every backend runs on its shards; the remote backends send each by
# its name in the worker command table, which is all a remote worker runs.
@worker_command(launch=True)
def _build_shard(spec: str, params: Tuple[Tuple[str, Any], ...],
                 chunk_size: Optional[int], index: int, shards: int) -> Tracker:
    """Construct shard ``index`` of ``shards`` from a registry spec."""
    params = dict(params)
    # Shard ``index`` owns the global sites index, index + shards, ...
    params["num_sites"] = len(range(index, params["num_sites"], shards))
    seed = params.get("seed")
    if seed is not None and index:
        # Distinct, deterministic per-shard RNG streams; shard 0 keeps
        # the caller's seed (single-shard bit-identity with Tracker).
        params["seed"] = seed + index * _SEED_STRIDE
    return Tracker.create(spec, chunk_size=chunk_size, **params)


@worker_command(launch=True)
def _restore_shard(frame: bytes, index: int) -> Tracker:
    """Restore shard ``index`` from its :func:`~repro.api.state.tracker_frame`.

    Decoded *on the worker*, and every remote backend sends all launch
    frames before it awaits any ``ready``, so the shards decode side by
    side: restore cost parallelises like save cost.
    """
    return tracker_from_frame(frame, source=f"shard {index}")


@worker_command
def _shard_ingest(tracker: Tracker, site_ids: np.ndarray, batch: Any) -> None:
    # The one shard write: ``site_ids`` are the shard's *local* site indices.
    # The remote backends send it as an ``ingest`` frame (worker_protocol).
    tracker.push_batch(site_ids, batch)


@worker_command
def _shard_stats(tracker: Tracker) -> Tuple[int, int, Dict[str, int]]:
    return (tracker.items_processed, tracker.total_messages,
            tracker.protocol.message_counts())


@worker_command
def _shard_metrics(tracker: Tracker) -> Tuple[int, int, Dict[str, Any]]:
    # The worker's whole metrics registry rides its own reply: only the
    # merged metrics view reads it, so stats() does not ship it.
    return (tracker.items_processed, tracker.total_messages,
            REGISTRY.snapshot())


@worker_command
def _shard_items(tracker: Tracker) -> int:
    # Seeds the parent's watermark: one int, not the whole stats reply.
    return tracker.items_processed


@worker_command
def _shard_ping(tracker: Tracker) -> str:
    # Cheapest possible liveness probe: an empty round trip through the
    # shard's FIFO proves the worker is alive and draining.
    return "ok"


@worker_command
def _shard_checkpoint(tracker: Tracker) -> bytes:
    # Encoded and compressed on the shard: each worker serializes its own
    # state in parallel, and the frame bytes are embedded verbatim in the
    # cluster checkpoint file (no second encoding pass at the caller).  The
    # socket backend's replay snapshots are the same frame.
    return tracker_frame(tracker, compress=True)


class ShardedTracker(Session):
    """A continuous-tracking session sharded over ``N`` coordinator groups.

    Build with :meth:`create` (registry spec + spec parameters) or restore
    with :meth:`load`.  Close with :meth:`close` (or use as a context
    manager) — the thread/process backends hold worker resources.
    """

    _pushes_total = _CLUSTER_PUSHES
    _items_total = _CLUSTER_ITEMS
    _queries_total = _CLUSTER_QUERIES
    _checkpoint_bytes_total = _CLUSTER_CHECKPOINT_BYTES
    _checkpoint_seconds = _CLUSTER_CHECKPOINT_SECONDS

    def __init__(self, spec: str, params: Dict[str, Any], *,
                 shards: int = 2,
                 backend: str = "serial",
                 chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE,
                 backend_options: Optional[Dict[str, Any]] = None,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 _builders: Optional[Sequence[Any]] = None):
        registry_spec = get_spec(spec)
        super().__init__(registry_spec.name, registry_spec.domain, params,
                         label=registry_spec.name, cache_size=cache_size)
        self._num_shards = check_positive_int(shards, name="shards")
        self._chunk_size = chunk_size
        self._backend_name = get_backend_spec(backend).name
        if _builders is None:
            registry_spec.validate(dict(self._params))  # fail before launch
            seed = self._params.get("seed")
            if seed is not None and (isinstance(seed, bool) or
                                     not isinstance(seed, (int, np.integer))):
                raise TypeError(f"a sharded session's seed must be an int or "
                                f"None (shards derive their own), not "
                                f"{type(seed).__name__}")
            params = tuple(sorted(self._params.items()))
            _builders = [partial(_build_shard, self._spec, params, chunk_size,
                                 index, self._num_shards)
                         for index in range(self._num_shards)]
        elif len(_builders) != self._num_shards:
            raise ValueError(
                f"got {len(_builders)} shard builders for {self._num_shards} shards"
            )
        self._num_sites = int(self._params["num_sites"])
        self._dimension = self._params.get("dimension")
        if self._num_shards > self._num_sites:
            raise ValueError(
                f"shards={self._num_shards} exceeds num_sites="
                f"{self._num_sites}: shard s owns sites s, s+shards, ..., "
                f"so every shard needs at least one site")
        self._backend: EngineBackend = create_backend(
            self._backend_name, **(backend_options or {})
        )
        self._backend.launch(list(_builders))
        self._closed = False
        #: Items dispatched to each shard, seeded from the shards (one path
        #: for create and load); replaced, never mutated, under readers.
        self._watermark_lock = threading.Lock()
        self._watermark: Tuple[int, ...] = tuple(
            self._backend.call_all(_shard_items))

    # ---------------------------------------------------------- construction
    @classmethod
    def create(cls, spec: str, *,
               shards: int = 2,
               backend: str = "serial",
               chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE,
               backend_options: Optional[Dict[str, Any]] = None,
               cache_size: int = DEFAULT_CACHE_SIZE,
               **params: Any) -> "ShardedTracker":
        """Build a sharded session from a registry spec name.

        ``params`` are the spec parameters of ``repro.create`` — every shard
        gets the same configuration except ``num_sites``, which is the
        *global* site count ``m``: shard ``s`` runs the ``len(range(s, m,
        shards))`` sites congruent to ``s`` (``shards > num_sites`` is a
        ``ValueError``), and seeded specs derive distinct per-shard seeds
        (shard 0 keeps the caller's seed).  ``cache_size`` sizes the
        merged-answer cache (``cache_size=0`` disables it; see
        :class:`~repro.api.cache.AnswerCache`).

        Examples
        --------
        >>> cluster = ShardedTracker.create("hh/P1", shards=2,
        ...                                 num_sites=4, epsilon=0.1)
        >>> cluster.num_shards
        2
        >>> cluster.close()
        """
        return cls(spec, params, shards=shards, backend=backend,
                   chunk_size=chunk_size, backend_options=backend_options,
                   cache_size=cache_size)

    # ------------------------------------------------------------ properties
    @property
    def num_shards(self) -> int:
        """Number of shards ``N``."""
        return self._num_shards

    @property
    def backend_name(self) -> str:
        """The engine backend this cluster executes on."""
        return self._backend_name

    @property
    def dispatch_concurrency_safe(self) -> bool:
        """True when queries may be dispatched concurrently with ingestion.

        Mirrors the engine backend's
        :attr:`~repro.cluster.backends.EngineBackend.dispatch_concurrency_safe`:
        the serving gateway runs queries on a separate executor only when
        this is True, otherwise it funnels them through its single writer
        thread.
        """
        return bool(getattr(self._backend, "dispatch_concurrency_safe", False))

    @property
    def chunk_size(self) -> Optional[int]:
        """Items per shard in one ``run`` dispatch (``None`` = the default)."""
        return self._chunk_size

    # -------------------------------------------------------------- ingestion
    def push(self, site: int, item: Any) -> None:
        """Ingest one stream item at global ``site`` (on shard ``site mod S``).

        A single item travels as a one-item batch, so shard assignment,
        watermark accounting and the wire shape are those of ``push_batch``;
        the batch is built and checked directly (no generic coercion), and
        a bad site or item is refused before any session state moves.
        """
        self._check_open()
        site = check_site(site, self._num_sites)
        if self._domain == DOMAIN_HEAVY_HITTERS:
            if hasattr(item, "element"):
                element, weight = item.element, item.weight
            elif isinstance(item, tuple):
                element, weight = item
            else:
                element, weight = item, 1.0
            batch: Any = WeightedItemBatch(elements=[element],
                                           weights=(weight,))
        else:
            batch = self._check_width(
                MatrixRowBatch.from_rows((getattr(item, "values", item),)))
        local, shard = divmod(site, self._num_shards)
        if REGISTRY.enabled:
            self._pushes.inc()
            self._items.inc()
        self._submit(shard, np.array((local,), dtype=np.int64), batch)

    def push_batch(self, items: Any,
                   site_ids: Optional[Sequence[int]] = None) -> None:
        """Fan one columnar batch out to its sites' shards through the backend.

        ``items`` is a :class:`~repro.streaming.items.WeightedItemBatch`,
        :class:`~repro.streaming.items.MatrixRowBatch`, a 2-d row array, or
        an iterable of stream items (coerced to a columnar batch).
        ``site_ids`` are *global* site indices in ``[0, num_sites)``, as on
        ``Tracker.push_batch``; without them a batch's own ``sites`` column
        is used, and otherwise sites are dealt round-robin over the
        session's global item index.  Item ``i`` goes to shard
        ``site_i mod S`` as that shard's local site ``site_i div S``, so
        load balance follows the site distribution the caller chose.
        """
        self._check_open()
        batch = self._coerce_batch(items)
        if len(batch) == 0:
            return
        sites = self._check_push(batch, site_ids)
        if REGISTRY.enabled:
            self._pushes.inc()
            self._items.inc(len(batch))
        shard = int(sites[0]) % self._num_shards
        if len(batch) == 1 or not (sites % self._num_shards != shard).any():
            # One shard takes the whole batch (every one-item push, every
            # push from a single site): no grouping, no copy.
            self._submit(shard, sites // self._num_shards, batch)
            return
        for shard, positions in _group_by_shard(sites % self._num_shards):
            self._submit(shard, sites[positions] // self._num_shards,
                         batch.take(positions))

    def run(self, source: Any) -> ShardedTrackerStats:
        """Feed a whole stream (or the next instalment) into the cluster.

        The stream is dispatched in chunks of ``chunk_size × shards`` items
        (one ``push_batch`` each, so about ``chunk_size`` items per shard
        under round-robin sites) so backend workers ingest while the caller
        is still slicing and shipping the next chunk (the pipelining that
        gives the process backend its multi-core scaling).  Blocks until
        every shard has drained, then returns the aggregated :meth:`stats`.
        """
        self._check_open()
        batch = self._coerce_batch(source)
        dispatch = (self._chunk_size or DEFAULT_CHUNK_SIZE) * self._num_shards
        total = len(batch)
        start = 0
        while start < total:
            stop = min(start + dispatch, total)
            self.push_batch(batch[start:stop])
            start = stop
        return self.stats()

    def flush(self) -> None:
        """Barrier: block until all submitted ingestion has been processed."""
        self._check_open()
        self._backend.join()

    # ---------------------------------------------------------------- queries
    # ``Session.query`` unchanged, but bound on this class too: the
    # benchmark harness patches ``Tracker.query`` and
    # ``ShardedTracker.query`` separately through each class's own dict.
    query = Session.query

    def _parts(self, query: Query, partial: bool
               ) -> Tuple[List[Dict[str, Any]], Sequence[int]]:
        """Fan ``query.materials`` out to the shards whose parts moved.

        No cluster-wide ingestion barrier is taken: the command goes to
        the shards at once and each shard snapshots its state after the
        work already queued to *it* (per-shard FIFO), while other shards
        keep ingesting.  On the remote backends the snapshot is extracted
        and wire-encoded on the worker.

        A full query reuses each part the answer cache holds for this query
        (:meth:`~repro.api.cache.AnswerCache.held_parts`) at its shard's
        watermark entry: nothing was queued to that shard after it was
        read.  A shard whose held part is behind is sent that part's
        ``epoch`` (kinds with coordinator fields only); when its
        coordinator has heard no message since, it replies with the
        scalars only and the reply is completed from the held part.
        ``partial=True`` always asks every shard and stores nothing.
        """
        kind, fields = query.to_fields()
        if not partial:
            key = cache_key(query) if self._cache.enabled else None
            if key is None:
                return self._backend.call_all(_shard_query, kind, fields), ()
            parts = self._cache.held_parts(key, self._num_shards)
            watermark = self._watermark
            asks: Dict[int, tuple] = {}
            for shard, part in enumerate(parts):
                if part is None:
                    asks[shard] = ()
                elif part["items"] != watermark[shard]:
                    asks[shard] = ((part["epoch"],) if query.coordinator_fields
                                   else ())
            unchanged = 0
            if asks:
                replies = self._backend.call_all(_shard_query, kind, fields,
                                                 shards=asks)
                for shard, reply in zip(asks, replies):
                    if asks[shard] and query.coordinator_fields[0] not in reply:
                        reply = {**parts[shard], **reply}
                        unchanged += 1
                    else:
                        _hold_read_only(reply, query.coordinator_fields)
                    parts[shard] = reply
            self._cache.store_parts(key, parts, self._num_shards - len(asks),
                                    unchanged)
            return parts, ()
        materials, errors = self._backend.call_all_partial(
            _shard_query, kind, fields)
        live = [shard for shard in materials if shard is not None]
        if not live:
            raise BackendError(
                f"partial query failed: all {self._num_shards} shard(s) "
                f"are unavailable"
            ) from (errors[min(errors)] if errors else None)
        return live, sorted(errors)

    # ------------------------------------------------- elastic membership
    def add_worker(self, address: Any) -> list:
        """Grow the worker set, live-rebalancing shards onto the new worker.

        Socket backend only.  The site→shard map never changes — only the
        shard→worker placement does (via snapshot handoff), so in-flight
        chunks keep routing consistently.  Returns the moved shard indices.
        """
        self._check_open()
        return self._elastic_backend().add_worker(address)

    def remove_worker(self, address: Any) -> list:
        """Shrink the worker set, evacuating its shards to the remaining ones.

        Socket backend only.  Works even when the retiring worker is
        already dead (shards rebuild from snapshot + replay).  Returns the
        moved shard indices.
        """
        self._check_open()
        return self._elastic_backend().remove_worker(address)

    def move_shard(self, shard: int, address: Any) -> None:
        """Relocate one shard's live session to another worker."""
        self._check_open()
        self._elastic_backend().move_shard(shard, address)

    def placement(self) -> list:
        """Current shard→worker placement (socket backend only)."""
        self._check_open()
        return self._elastic_backend().placement()

    @property
    def placement_version(self) -> int:
        """Version counter of the shard→worker placement map."""
        self._check_open()
        return self._elastic_backend().placement_version

    def _elastic_backend(self) -> Any:
        if not hasattr(self._backend, "add_worker"):
            raise BackendError(
                f"the {self._backend_name!r} backend does not support "
                "elastic membership; use backend='socket'"
            )
        return self._backend

    @property
    def watermark(self) -> Tuple[int, ...]:
        """Items dispatched to each shard; a handoff moves a shard's state
        intact, so placement changes leave it unchanged."""
        return self._watermark

    def stats(self) -> ShardedTrackerStats:
        """Aggregate items/message accounting over the whole cluster.

        Tolerant of dead shards (like the metrics/liveness surfaces): the
        sums cover the reachable shards, unreachable ones appear as
        ``None`` in ``per_shard`` and are named in ``missing_shards`` — a
        degraded cluster still reports instead of failing the whole stats
        surface.  Only when *every* shard is unreachable does this raise.
        """
        self._check_open()
        results, errors = self._backend.call_all_partial(_shard_stats)
        live = [row for row in results if row is not None]
        if not live:
            raise BackendError(
                f"stats failed: all {self._num_shards} shard(s) are "
                f"unavailable"
            ) from (errors[min(errors)] if errors else None)
        return ShardedTrackerStats(
            spec=self._spec,
            backend=self._backend_name,
            shards=self._num_shards,
            num_sites=self._num_sites,
            epsilon=self._params.get("epsilon"),
            chunk_size=self._chunk_size,
            items_processed=sum(row[0] for row in live),
            total_messages=sum(row[1] for row in live),
            message_counts=merge_message_counts(row[2] for row in live),
            per_shard=tuple(None if row is None else (row[0], row[1])
                            for row in results),
            missing_shards=tuple(sorted(errors)),
        )

    def metrics_snapshot(self) -> List[Dict[str, Any]]:
        """Registry snapshots for the cluster-wide merged metrics view.

        Returns this process's snapshot plus one per *reachable* shard
        (one call per shard carrying its items, messages and registry); dead
        shards are skipped so the metrics surface stays readable during an
        outage.  Merge with :func:`repro.obs.merge_snapshots`, which
        de-duplicates by worker identity — serial/thread/embedded-worker
        shards sharing this process's registry collapse into one snapshot.
        """
        self._check_open()
        results, _errors = self._backend.call_all_partial(_shard_metrics)
        live = [(shard, row) for shard, row in enumerate(results)
                if row is not None]
        if REGISTRY.enabled:
            for shard, row in live:
                _CLUSTER_SHARD_ITEMS.set(row[0], spec=self._spec, shard=shard)
                _CLUSTER_SHARD_MESSAGES.set(row[1], spec=self._spec,
                                            shard=shard)
        snapshots: List[Dict[str, Any]] = [REGISTRY.snapshot()]
        snapshots.extend(row[2] for _, row in live if row[2])
        return snapshots

    def liveness(self) -> Dict[str, str]:
        """Cheap per-shard liveness probe: ``{"0": "ok", "1": "unreachable: …"}``.

        Each shard answers an empty call through its FIFO; shards whose
        workers are dead (and could not be recovered) report the failure
        text instead of ``"ok"``.  Powers the gateway's ``/v1/healthz``.
        """
        self._check_open()
        _results, errors = self._backend.call_all_partial(_shard_ping)
        return {
            str(shard): (f"unreachable: {errors[shard]}" if shard in errors
                         else "ok")
            for shard in range(self._num_shards)
        }

    # ----------------------------------------------------------- persistence
    def save(self, path: Any) -> None:
        """Checkpoint every shard into one versioned cluster file.

        The file is a :mod:`repro.wire` frame embedding one full tracker
        payload frame per shard — encoded and compressed *on the worker*,
        so shard serialization runs in parallel on the remote backends —
        plus the cluster topology (spec, global parameters, shard count,
        backend, global item index); :meth:`load` resumes the whole cluster
        bit-identically, re-deriving the index from the restored shards.
        The outer frame is not compressed again: its body is mostly those
        already-compressed shard frames.
        """
        self._check_open()
        with self._timed_save(path):
            payloads = self._backend.call_all(_shard_checkpoint)
            _write(path, {
                "format": _CLUSTER_FORMAT,
                "version": CLUSTER_CHECKPOINT_VERSION,
                "spec": self._spec,
                "params": self._params,
                "shards": self._num_shards,
                "backend": self._backend_name,
                "chunk_size": self._chunk_size,
                "items_dispatched": sum(self._watermark),
                "shard_payloads": payloads,
            }, compress=False)

    @classmethod
    def load(cls, path: Any, backend: Optional[str] = None,
             backend_options: Optional[Dict[str, Any]] = None
             ) -> "ShardedTracker":
        """Restore a cluster checkpointed with :meth:`save`.

        ``backend`` overrides the backend recorded in the checkpoint (a
        cluster saved under the process backend can resume serially, over
        sockets, and vice versa — shard state is backend-independent).
        A checkpoint saved under the ``socket`` backend needs either
        ``backend_options={"addresses": ...}`` (worker endpoints are not
        recorded — the restore cluster rarely lives on the saving hosts) or
        a ``backend`` override; omitting both raises a ``BackendError``
        saying so.  Version-1 files (row-dealt / element-hashed shards) are
        refused with a ``CheckpointError`` naming the cause.
        """
        payload = _read(path, _CLUSTER_FORMAT,
                        expected_version=CLUSTER_CHECKPOINT_VERSION,
                        retired=_RETIRED_VERSIONS)
        shard_payloads = payload.get("shard_payloads")
        if not shard_payloads:
            raise CheckpointError(f"{path!s} contains no shard payloads")
        builders = [partial(_restore_shard, frame, index)
                    for index, frame in enumerate(shard_payloads)]
        return cls(
            payload["spec"],
            restorable_params(payload.get("params") or {}, str(path)),
            shards=len(builders),
            backend=backend if backend is not None else payload["backend"],
            chunk_size=payload["chunk_size"],
            backend_options=backend_options,
            _builders=builders,
        )

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release backend workers; the cluster is unusable afterwards."""
        if not getattr(self, "_closed", True):
            self._backend.close()
            self._closed = True

    def __enter__(self) -> "ShardedTracker":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if getattr(self, "_closed", True) else "open"
        return (f"ShardedTracker(spec={self._spec!r}, "
                f"shards={self._num_shards}, "
                f"backend={self._backend_name!r}, {state})")

    # ------------------------------------------------------------- internals
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this ShardedTracker has been closed")

    def _submit(self, shard: int, site_ids: np.ndarray, batch: Any) -> None:
        """Count ``batch`` in ``shard``'s watermark entry, then submit it.

        Counted before the submit, so a reader never takes the entry for a
        state the shard may already be past.  A batch the wire codec
        refuses (``WireEncodeError``) was never delivered, so its count is
        taken back; a batch the shard itself refuses stays counted, behind
        the error the shard holds for its next call.
        """
        self._advance(shard, len(batch))
        try:
            self._backend.submit(shard, _shard_ingest, site_ids, batch)
        except WireEncodeError:
            self._advance(shard, -len(batch))
            raise

    def _advance(self, shard: int, count: int) -> None:
        """Add ``count`` items to ``shard``'s watermark entry.

        Under a lock: two writers on different shards must not lose either
        increment, or a reader would take the lagging entry for the
        shard's current state.
        """
        with self._watermark_lock:
            watermark = list(self._watermark)
            watermark[shard] += count
            self._watermark = tuple(watermark)

    def _check_width(self, batch: MatrixRowBatch) -> MatrixRowBatch:
        if batch.dimension != self._dimension:
            raise ValueError(
                f"rows has {batch.dimension} columns but the stream "
                f"dimension is {self._dimension}"
            )
        return batch

    def _check_push(self, batch: Any,
                    site_ids: Optional[Sequence[int]]) -> np.ndarray:
        """Reject a malformed batch before any session state moves.

        Submits are fire-and-forget on the remote backends, so a shard-side
        ``ValueError`` would be charged to the next unrelated call — after
        the watermark, the item index and the healthy shards had already
        moved.  Raises the protocol's own messages; returns every item's
        *global* site as an index array.
        """
        if self._domain != DOMAIN_HEAVY_HITTERS:
            self._check_width(batch)
        if site_ids is None:
            site_ids = batch.sites
        if site_ids is None:
            # Global item index: unassigned item ``i`` sits at site ``i mod
            # m`` (as ``Tracker.run`` continues from ``items_processed``).
            start = sum(self._watermark)
            return (np.arange(start, start + len(batch), dtype=np.int64)
                    % self._num_sites)
        return check_site_ids(site_ids, len(batch), self._num_sites)

    def _coerce_batch(self, items: Any) -> Any:
        """Coerce any accepted stream shape into a columnar batch."""
        if isinstance(items, (WeightedItemBatch, MatrixRowBatch)):
            return items
        if isinstance(items, np.ndarray) and items.ndim == 2:
            return MatrixRowBatch(values=items.astype(np.float64, copy=False))
        if self._domain == DOMAIN_HEAVY_HITTERS:
            item_list = list(items)
            if item_list and hasattr(item_list[0], "element"):
                return WeightedItemBatch.from_items(item_list)
            return WeightedItemBatch.from_pairs(item_list)
        return MatrixRowBatch.from_rows(items)


def _hold_read_only(part: Dict[str, Any], names: Sequence[str]) -> None:
    """Swap the arrays under ``names`` for read-only views: a held part is
    completed into later answers, and a one-shard answer's estimate *is*
    its array, so no caller may write through one into the next."""
    for name in names:
        value = part[name]
        if isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
            part[name] = value


def _group_by_shard(shards: np.ndarray):
    """Yield ``(shard, positions)`` with positions in arrival order."""
    order = np.argsort(shards, kind="stable")
    sorted_shards = shards[order]
    boundaries = np.nonzero(np.diff(sorted_shards))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [shards.shape[0]]))
    for start, end in zip(starts, ends):
        yield int(sorted_shards[start]), order[start:end]
