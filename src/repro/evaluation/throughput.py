"""Ingestion-throughput measurement: per-item versus batched dispatch.

The batched ingestion engine exists to make the reproduction fast enough for
paper-scale streams (10^7 items), so its win must be measurable.  This module
times the same protocol over the same workload through both dispatch paths —
the historical item-at-a-time loop and the engine's chunked
``observe_batch`` path — and reports items/second plus the speedup factor.

Used by the ``repro-experiments bench`` CLI sub-command, the
``benchmarks/test_bench_throughput.py`` harness, and the CI smoke benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.registry import create
from ..data.synthetic_matrix import make_pamap_like
from ..data.zipfian import ZipfianStreamGenerator
from ..streaming.items import WeightedItemBatch
from ..streaming.runner import StreamingEngine

__all__ = [
    "BENCH_CHUNK_SIZE",
    "HH_BENCH_PROTOCOLS",
    "MATRIX_BENCH_SPECS",
    "ShardScalingResult",
    "ThroughputResult",
    "measure_heavy_hitter_throughput",
    "measure_matrix_throughput",
    "measure_sharded_throughput",
    "sharded_report_rows",
    "throughput_report_rows",
]

#: Chunk size used by the throughput benchmarks (larger than the engine
#: default: at benchmark scale the bigger slices amortise per-chunk work).
BENCH_CHUNK_SIZE = 16_384

#: Heavy-hitter protocols the bench can exercise, now that P2-P4 have native
#: ``process_batch`` kernels.  Each factory takes ``(num_sites, epsilon,
#: seed)`` and resolves its protocol through the :mod:`repro.api` registry;
#: the deterministic protocols ignore the seed.
HH_BENCH_PROTOCOLS: Dict[str, Callable[[int, float, int], Any]] = {
    "P1": lambda m, eps, seed: create("hh/P1", num_sites=m, epsilon=eps),
    "P2": lambda m, eps, seed: create("hh/P2", num_sites=m, epsilon=eps),
    "P3": lambda m, eps, seed: create("hh/P3", num_sites=m, epsilon=eps,
                                      sample_size=400, seed=seed),
    "P4": lambda m, eps, seed: create("hh/P4", num_sites=m, epsilon=eps,
                                      seed=seed),
}

#: Matrix protocols the bench can exercise — the two with SVD-bound
#: compaction hot loops, so ``--svd-mode`` comparisons mean something.
MATRIX_BENCH_SPECS: Dict[str, str] = {
    "P1": "matrix/P1",
    "P2": "matrix/P2",
}


@dataclass(frozen=True)
class ThroughputResult:
    """Per-item versus batched ingestion timings for one workload."""

    workload: str
    protocol: str
    num_items: int
    chunk_size: int
    per_item_seconds: float
    batched_seconds: float

    @property
    def per_item_rate(self) -> float:
        """Items per second through the item-at-a-time path."""
        return self.num_items / max(self.per_item_seconds, 1e-12)

    @property
    def batched_rate(self) -> float:
        """Items per second through the batched engine path."""
        return self.num_items / max(self.batched_seconds, 1e-12)

    @property
    def speedup(self) -> float:
        """``batched_rate / per_item_rate``."""
        return self.per_item_seconds / max(self.batched_seconds, 1e-12)

    def as_dict(self) -> Dict[str, Any]:
        """Flatten into a report row (for tables and CI logs)."""
        return {
            "workload": self.workload,
            "protocol": self.protocol,
            "items": self.num_items,
            "chunk": self.chunk_size,
            "per_item_items_per_sec": round(self.per_item_rate),
            "batched_items_per_sec": round(self.batched_rate),
            "speedup": round(self.speedup, 2),
        }


def _time_run(engine: StreamingEngine, protocol: Any, stream: Any) -> float:
    started = time.perf_counter()
    engine.run(protocol, stream)
    return time.perf_counter() - started


def measure_heavy_hitter_throughput(
    num_items: int = 1_000_000,
    num_sites: int = 10,
    epsilon: float = 0.05,
    universe_size: int = 10_000,
    beta: float = 1_000.0,
    skew: float = 2.0,
    seed: int = 2014,
    chunk_size: int = BENCH_CHUNK_SIZE,
    protocol_factory: Optional[Callable[[], Any]] = None,
    protocol: str = "P1",
    repeats: int = 1,
    stream: Optional[Tuple[List[Any], WeightedItemBatch]] = None,
) -> ThroughputResult:
    """Time a heavy-hitters protocol over the paper's Zipfian workload.

    ``protocol`` selects one of :data:`HH_BENCH_PROTOCOLS` (P1-P4, all with
    native batch kernels); ``protocol_factory`` overrides it entirely.  The
    same materialised stream is replayed into fresh protocol instances:
    once item-at-a-time (``chunk_size=None`` engine) and ``repeats`` times
    through the batched path (best time wins — the batched run is short
    enough that scheduler noise would otherwise dominate it).  Defaults
    mirror the Section 6.1 workload at a tenth of the paper's 10^7 length.
    ``stream`` short-circuits generation with a prebuilt ``(items, batch)``
    pair so multi-protocol reports build the workload once.
    """
    if stream is None:
        generator = ZipfianStreamGenerator(universe_size=universe_size,
                                           skew=skew, beta=beta, seed=seed)
        sample = generator.generate(num_items)
        stream = (sample.items, WeightedItemBatch.from_pairs(sample.items))
    items, batch = stream
    num_items = len(items)
    if protocol_factory is None:
        if protocol not in HH_BENCH_PROTOCOLS:
            raise ValueError(
                f"unknown bench protocol {protocol!r}; "
                f"expected one of {sorted(HH_BENCH_PROTOCOLS)}"
            )
        name = protocol

        def protocol_factory() -> Any:
            return HH_BENCH_PROTOCOLS[name](num_sites, epsilon, seed)
    per_item_protocol = protocol_factory()
    per_item_seconds = _time_run(StreamingEngine(chunk_size=None),
                                 per_item_protocol, items)
    batched_protocol = protocol_factory()
    batched_seconds = min(
        _time_run(StreamingEngine(chunk_size=chunk_size), protocol_factory()
                  if attempt else batched_protocol, batch)
        for attempt in range(max(1, repeats))
    )
    return ThroughputResult(
        workload="zipfian-heavy-hitters",
        protocol=type(batched_protocol).__name__,
        num_items=num_items,
        chunk_size=chunk_size,
        per_item_seconds=per_item_seconds,
        batched_seconds=batched_seconds,
    )


def measure_matrix_throughput(
    num_rows: int = 100_000,
    num_sites: int = 10,
    epsilon: float = 0.2,
    seed: int = 2014,
    chunk_size: int = BENCH_CHUNK_SIZE,
    protocol_factory: Optional[Callable[[int], Any]] = None,
    repeats: int = 1,
    protocol: str = "P1",
    svd_mode: Optional[str] = None,
) -> ThroughputResult:
    """Time a matrix protocol over the PAMAP-like synthetic row workload.

    ``protocol`` selects one of :data:`MATRIX_BENCH_SPECS` (P1/P2 — the
    compaction-bound protocols); ``svd_mode`` pins the FD compaction kernel
    (``None`` uses the protocol default, ``"exact"`` reproduces the
    historical LAPACK path), so ``bench --svd-mode exact`` vs the default
    measures exactly the kernel swap.
    """
    dataset = make_pamap_like(num_rows=num_rows, seed=seed)
    rows = np.ascontiguousarray(dataset.rows, dtype=np.float64)
    if protocol_factory is None:
        if protocol not in MATRIX_BENCH_SPECS:
            raise ValueError(
                f"unknown matrix bench protocol {protocol!r}; "
                f"expected one of {sorted(MATRIX_BENCH_SPECS)}"
            )
        spec = MATRIX_BENCH_SPECS[protocol]
        extra = {} if svd_mode is None else {"svd_mode": svd_mode}

        def protocol_factory(dimension: int) -> Any:
            return create(spec, num_sites=num_sites,
                          dimension=dimension, epsilon=epsilon, **extra)
    per_item_protocol = protocol_factory(dataset.dimension)
    per_item_seconds = _time_run(StreamingEngine(chunk_size=None),
                                 per_item_protocol, rows)
    batched_protocol = protocol_factory(dataset.dimension)
    batched_seconds = min(
        _time_run(StreamingEngine(chunk_size=chunk_size), protocol_factory(dataset.dimension)
                  if attempt else batched_protocol, rows)
        for attempt in range(max(1, repeats))
    )
    return ThroughputResult(
        workload="synthetic-matrix",
        protocol=type(batched_protocol).__name__ + (
            f"[svd_mode={svd_mode}]" if svd_mode else ""),
        num_items=num_rows,
        chunk_size=chunk_size,
        per_item_seconds=per_item_seconds,
        batched_seconds=batched_seconds,
    )


# ------------------------------------------------------------ shard scaling
@dataclass(frozen=True)
class ShardScalingResult:
    """Items/sec of one sharded configuration on the Zipfian HH workload."""

    workload: str
    spec: str
    backend: str
    shards: int
    num_items: int
    chunk_size: int
    seconds: float
    killed_at: Optional[int] = None

    @property
    def rate(self) -> float:
        """Items per second through the whole cluster."""
        return self.num_items / max(self.seconds, 1e-12)

    def as_dict(self, baseline_rate: Optional[float] = None) -> Dict[str, Any]:
        """Flatten into a report row; ``baseline_rate`` adds the speedup."""
        row: Dict[str, Any] = {
            "workload": self.workload,
            "spec": self.spec,
            "backend": self.backend,
            "shards": self.shards,
            "items": self.num_items,
            "items_per_sec": round(self.rate),
        }
        if self.killed_at is not None:
            row["killed_at"] = self.killed_at
        if baseline_rate:
            row["speedup_vs_1_shard"] = round(self.rate / baseline_rate, 2)
        return row


def measure_sharded_throughput(
    num_items: int = 1_000_000,
    shard_counts: Sequence[int] = (1, 2, 4),
    backend: str = "process",
    spec: str = "hh/P2",
    num_sites: int = 10,
    epsilon: float = 0.05,
    universe_size: int = 10_000,
    beta: float = 1_000.0,
    skew: float = 2.0,
    seed: int = 2014,
    chunk_size: int = BENCH_CHUNK_SIZE,
    repeats: int = 1,
    backend_options: Optional[Dict[str, Any]] = None,
    kill_shard_at: Optional[int] = None,
) -> List[ShardScalingResult]:
    """Scaling curve: items/sec of a ``ShardedTracker`` versus shard count.

    The same materialised Zipfian stream is replayed into a fresh cluster
    per shard count; each timing covers dispatch (shard hashing, grouping,
    shipping) *and* a final barrier, so the reported rate is end-to-end.
    ``shards=1`` is the sharding layer's own single-shard configuration —
    compare against :func:`measure_heavy_hitter_throughput` for the
    facade-free baseline.  True multi-core speedup needs the ``process``
    backend and at least ``shards`` idle cores.  ``backend_options`` pass
    through to the backend constructor.

    With ``backend="socket"`` and no ``addresses`` in ``backend_options``
    the bench spins up two embedded :class:`~repro.cluster.WorkerServer`
    instances on localhost, so ``bench --backend socket --shards N`` is
    self-contained.  ``kill_shard_at`` is the chaos knob: once that many
    items have been pushed, every live session on the last embedded worker
    is severed mid-stream and the backend must heal by reconnect + replay;
    the measurement then *asserts* that the healed cluster accounted for
    every item, so a recovery regression fails the bench instead of
    silently shipping a partial rate.
    """
    from ..cluster import BackendError, ShardedTracker  # cluster sits above

    if kill_shard_at is not None and kill_shard_at <= 0:
        raise ValueError("kill_shard_at must be a positive item count")
    generator = ZipfianStreamGenerator(universe_size=universe_size, skew=skew,
                                       beta=beta, seed=seed)
    batch = WeightedItemBatch.from_pairs(generator.generate(num_items).items)
    options = dict(backend_options) if backend_options else {}
    servers: List[Any] = []
    if backend == "socket" and not options.get("addresses"):
        from ..cluster.socket_backend import WorkerServer

        servers = [WorkerServer("127.0.0.1", 0).start() for _ in range(2)]
        options["addresses"] = ["{0}:{1}".format(*server.address)
                                for server in servers]
    if kill_shard_at is not None and not servers:
        raise ValueError(
            "kill_shard_at needs the embedded localhost workers; use "
            "backend='socket' without explicit addresses"
        )
    results = []
    try:
        for shards in shard_counts:
            best = float("inf")
            for _ in range(max(1, repeats)):
                cluster = ShardedTracker.create(
                    spec, shards=shards, backend=backend,
                    backend_options=options or None,
                    chunk_size=chunk_size, num_sites=num_sites,
                    epsilon=epsilon,
                )
                try:
                    started = time.perf_counter()
                    if kill_shard_at is None:
                        cluster.run(batch)  # returns once the cluster drains
                    else:
                        _run_with_kill(cluster, batch, chunk_size,
                                       kill_shard_at, servers[-1])
                    best = min(best, time.perf_counter() - started)
                    if kill_shard_at is not None:
                        processed = cluster.stats().items_processed
                        if processed != len(batch):
                            raise BackendError(
                                f"chaos run lost items: the healed cluster "
                                f"accounted for {processed} of {len(batch)} "
                                f"items after the mid-stream worker kill"
                            )
                finally:
                    cluster.close()
            results.append(ShardScalingResult(
                workload="zipfian-heavy-hitters-sharded",
                spec=spec, backend=backend, shards=shards,
                num_items=len(batch), chunk_size=chunk_size, seconds=best,
                killed_at=kill_shard_at,
            ))
    finally:
        for server in servers:
            server.stop()
    return results


def _run_with_kill(cluster: Any, batch: WeightedItemBatch, chunk_size: int,
                   kill_shard_at: int, victim: Any) -> None:
    """Push ``batch`` in chunks, severing ``victim``'s sessions mid-stream.

    The kill lands after the first chunk boundary at or past
    ``kill_shard_at`` items, while later chunks are still coming — the
    socket backend must reconnect and replay for the stream to finish.
    """
    pushed = 0
    killed = False
    while pushed < len(batch):
        cluster.push_batch(batch[pushed:pushed + chunk_size])
        pushed += min(chunk_size, len(batch) - pushed)
        if not killed and pushed >= kill_shard_at:
            victim.kill_sessions()
            killed = True
    if not killed:
        victim.kill_sessions()
    cluster.flush()


def sharded_report_rows(results: Sequence[ShardScalingResult]) -> List[Dict[str, Any]]:
    """Report rows with speedups relative to the 1-shard configuration."""
    baseline = next((result.rate for result in results if result.shards == 1),
                    None)
    return [result.as_dict(baseline_rate=baseline) for result in results]


def throughput_report_rows(num_items: int = 1_000_000,
                           num_rows: int = 100_000,
                           chunk_size: int = BENCH_CHUNK_SIZE,
                           seed: int = 2014,
                           hh_protocols: Sequence[str] = ("P1", "P2", "P3"),
                           matrix_protocols: Sequence[str] = ("P1",),
                           svd_mode: Optional[str] = None,
                           ) -> List[Dict[str, Any]]:
    """Measure the heavy-hitter workload per protocol plus the matrix workload.

    The Zipfian stream is generated once and shared across the heavy-hitter
    protocols (every measurement replays it into fresh protocol instances).
    ``matrix_protocols``/``svd_mode`` select the matrix measurements (see
    :func:`measure_matrix_throughput`).
    """
    # Pin the workload parameters to measure_heavy_hitter_throughput's
    # defaults explicitly so the shared stream cannot silently drift from
    # what direct measure_* calls would generate.
    generator = ZipfianStreamGenerator(universe_size=10_000, skew=2.0,
                                       beta=1_000.0, seed=seed)
    sample = generator.generate(num_items)
    stream = (sample.items, WeightedItemBatch.from_pairs(sample.items))
    results = [
        measure_heavy_hitter_throughput(num_items=num_items,
                                        chunk_size=chunk_size, seed=seed,
                                        protocol=protocol, stream=stream)
        for protocol in hh_protocols
    ]
    results.extend(
        measure_matrix_throughput(num_rows=num_rows, chunk_size=chunk_size,
                                  seed=seed, protocol=protocol,
                                  svd_mode=svd_mode)
        for protocol in matrix_protocols
    )
    return [result.as_dict() for result in results]
