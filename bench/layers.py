"""Per-layer metrics, all taken from outside the program.

Three sources:

* **spans** the harness records around public layer calls while the workload
  runs (:func:`instrument_layers`; self time = duration - child coverage);
* **stage replays**: chunks of the workload's own stream fed through one
  layer's public function in isolation, in this process;
* **deltas of series the program already exports** (``REGISTRY`` /
  ``GET /v1/metrics``), which also cover worker and gateway processes.

A metric whose layer the workload never enters is reported as ``0``: that is
the prediction ("wire, cluster and gateway do no work on the direct
workloads") made visible, not a missing value.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import repro
from repro import FrobeniusSquared, ShardedTracker, Tracker
from repro.accel import fd_kernels
from repro.api import state as api_state
from repro.api.queries import Answer
from repro.cluster import merge as cluster_merge
from repro.cluster import sharding as cluster_sharding
from repro.cluster.backends import EngineBackend, ProcessBackend
from repro.cluster.sharded_tracker import _shard_ingest
from repro.cluster.worker_protocol import decode_command, encode_command, encode_reply
from repro.data import synthetic_matrix, zipfian
from repro.gateway.client import GatewayClient
from repro.heavy_hitters.base import WeightedHeavyHitterProtocol
from repro.heavy_hitters.p2_threshold import ThresholdedUpdatesProtocol
from repro.matrix_tracking.base import MatrixTrackingProtocol
from repro.matrix_tracking import p2_deterministic as p2_module
from repro.matrix_tracking.p2_deterministic import DeterministicDirectionProtocol
from repro.sketch import FrequentDirections, WeightedMisraGries
from repro.streaming import RoundRobinPartitioner
from repro.streaming.items import MatrixRowBatch, WeightedItemBatch
from repro.streaming.protocol import DistributedProtocol
from repro.streaming.runner import StreamingEngine
from repro.wire import frames as wire_frames

from . import BLAS_VARIABLES
from . import workloads as wl
from .procs import run_child
from .series import mean_delta_ms, series_delta
from .stats import summarize
from .trace import Span, Tracer, layer_self_seconds, self_times

clock = time.perf_counter

#: name -> (unit, better).  BENCHMARK.json's ``per_layer`` must list exactly these.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # data: input generation, paid in set-up on every workload
    "data.pamap_rows_per_s": ("rows/s", "higher"),
    "data.zipf_items_per_s": ("items/s", "higher"),
    # accel: the spectral kernels
    "accel.spectral_us": ("us", "lower"),
    "accel.shrink_us": ("us", "lower"),
    "accel.shrink_exact_us": ("us", "lower"),
    "accel.kernel_calls": ("count", "lower"),
    "accel.compactions": ("count", "lower"),
    "accel.svd_busy_share": ("ratio", "lower"),
    "accel.bulk_self_share": ("ratio", "lower"),
    # sketch
    "sketch.fd_append_rows_per_s": ("rows/s", "higher"),
    "sketch.fd_view_us": ("us", "lower"),
    "sketch.mg_update_items_per_s": ("items/s", "higher"),
    # the two protocol families
    "matrix_tracking.p2_rows_per_s": ("rows/s", "higher"),
    "matrix_tracking.p2_item_rows_per_s": ("rows/s", "higher"),
    "matrix_tracking.p1_rows_per_s": ("rows/s", "higher"),
    "matrix_tracking.p3_rows_per_s": ("rows/s", "higher"),
    "matrix_tracking.bulk_self_share": ("ratio", "lower"),
    "heavy_hitters.p2_items_per_s": ("items/s", "higher"),
    "heavy_hitters.p2_item_items_per_s": ("items/s", "higher"),
    "heavy_hitters.p1_items_per_s": ("items/s", "higher"),
    "heavy_hitters.p3_items_per_s": ("items/s", "higher"),
    "heavy_hitters.bulk_self_share": ("ratio", "lower"),
    # streaming
    "streaming.assign_ns_per_item": ("ns", "lower"),
    "streaming.engine_self_share": ("ratio", "lower"),
    "streaming.messages_total": ("count", "lower"),
    "streaming.bulk_self_share": ("ratio", "lower"),
    # api
    "api.push_batch_self_us": ("us", "lower"),
    "api.query_answer_us": ("us", "lower"),
    "api.query_sketch_us": ("us", "lower"),
    "api.cache_hit_us": ("us", "lower"),
    "api.to_json_answer_us": ("us", "lower"),
    "api.to_json_sketch_us": ("us", "lower"),
    "api.save_ms": ("ms", "lower"),
    "api.load_ms": ("ms", "lower"),
    "api.bulk_self_share": ("ratio", "lower"),
    # wire
    "wire.pack_chunk_us": ("us", "lower"),
    "wire.unpack_chunk_us": ("us", "lower"),
    "wire.chunk_frame_bytes": ("bytes", "lower"),
    "wire.pack_sketch_reply_us": ("us", "lower"),
    "wire.encode_state_ms": ("ms", "lower"),
    "wire.decode_state_ms": ("ms", "lower"),
    "wire.state_bytes": ("bytes", "lower"),
    "wire.bulk_self_share": ("ratio", "lower"),
    # cluster
    "cluster.shard_assign_ns_per_item": ("ns", "lower"),
    "cluster.submit_busy_share": ("ratio", "lower"),
    "cluster.flush_wait_share": ("ratio", "lower"),
    "cluster.call_rtt_us": ("us", "lower"),
    "cluster.backend_call_ms": ("ms", "lower"),
    "cluster.materials_sketch_us": ("us", "lower"),
    "cluster.merge_answer_us": ("us", "lower"),
    "cluster.merge_sketch_us": ("us", "lower"),
    "cluster.serial_rows_per_s": ("rows/s", "higher"),
    "cluster.shm_rows_per_s": ("rows/s", "higher"),
    "cluster.blas_unpinned_ratio": ("ratio", "higher"),
    "cluster.bulk_self_share": ("ratio", "lower"),
    # gateway
    "gateway.client_encode_share": ("ratio", "lower"),
    "gateway.push_body_bytes": ("bytes", "lower"),
    "gateway.server_push_ms": ("ms", "lower"),
    "gateway.server_query_answer_ms": ("ms", "lower"),
    "gateway.server_query_sketch_ms": ("ms", "lower"),
    "gateway.wire_gap_push_ms": ("ms", "lower"),
    "gateway.coalesced_pushes": ("count", "higher"),
    "gateway.not_modified": ("count", "higher"),
    "gateway.cache_hit_ratio": ("ratio", "higher"),
    "gateway.sketch_response_bytes": ("bytes", "lower"),
    "gateway.client_parse_sketch_ms": ("ms", "lower"),
    "gateway.contended_answer_p50_ms": ("ms", "lower"),
    "gateway.contended_sketch_p50_ms": ("ms", "lower"),
    "gateway.reader_late_ms": ("ms", "lower"),
    "gateway.push_tail_ms": ("ms", "lower"),
    "gateway.fresh_answer_tail_ms": ("ms", "lower"),
    "gateway.bulk_self_share": ("ratio", "lower"),
    # obs
    "obs.scrape_ms": ("ms", "lower"),
    # the harness itself
    "bench.push_p50_ms": ("ms", "lower"),
    "bench.query_cached_p50_ms": ("ms", "lower"),
    "bench.host_slowdown": ("ratio", "lower"),
    "bench.trace_overhead_share": ("ratio", "lower"),
    "bench.unattributed_share": ("ratio", "lower"),
}

#: Layers whose code can run inside the harness process (and so get spans).
SPAN_LAYERS = ("accel", "matrix_tracking", "heavy_hitters", "streaming", "api",
               "wire", "cluster", "gateway")

#: Rows/items a stage replay feeds through a layer (a prefix of the stream).
REPLAY_ROWS = 16_384
REPLAY_ITEMS = 262_144
BREADTH_ROWS = 16_384
BREADTH_ITEMS = 131_072


# ------------------------------------------------------------ instrumentation
def instrument_data(tracer: Tracer) -> None:
    """Spans around input generation, so set-up cost is attributable."""
    tracer.instrument(synthetic_matrix, "make_pamap_like", "data")
    tracer.instrument(zipfian.ZipfianStreamGenerator, "generate", "data")
    tracer.instrument(WeightedItemBatch, "from_pairs", "data")


def data_rates(tracer: Tracer, workload: wl.Workload) -> Dict[str, float]:
    """Generator throughput from the spans around the set-up's own generator calls."""
    seconds: Dict[str, float] = {}
    for span in tracer.spans:
        if span.layer == "data" and span.parent is None:
            key = span.name.rsplit(".", 1)[-1]
            seconds[key] = seconds.get(key, 0.0) + span.end - span.start
    generated = workload.domain.spare_from + len(workload.domain.spares)
    rates = {"data.pamap_rows_per_s": 0.0, "data.zipf_items_per_s": 0.0}
    if "make_pamap_like" in seconds:
        rates["data.pamap_rows_per_s"] = generated / seconds["make_pamap_like"]
    if "generate" in seconds:
        rates["data.zipf_items_per_s"] = generated / (seconds["generate"]
                                                      + seconds["from_pairs"])
    return rates


def instrument_layers(tracer: Tracer) -> None:
    """Spans around the public functions a push or a query crosses, layer by layer."""
    for name in ("run", "push", "push_batch", "query", "save", "load"):
        tracer.instrument(Tracker, name, "api")
    tracer.instrument(Answer, "to_json", "api")
    tracer.instrument(StreamingEngine, "run", "streaming")
    tracer.instrument(RoundRobinPartitioner, "assign_batch", "streaming")
    tracer.instrument(DistributedProtocol, "observe", "streaming")
    tracer.instrument(DistributedProtocol, "observe_batch", "streaming")
    for name in ("process", "process_batch", "sketch_matrix"):
        tracer.instrument(DeterministicDirectionProtocol, name, "matrix_tracking")
    tracer.instrument(MatrixTrackingProtocol, "covariance", "matrix_tracking")
    for name in ("process", "process_batch", "estimates"):
        tracer.instrument(ThresholdedUpdatesProtocol, name, "heavy_hitters")
    tracer.instrument(WeightedHeavyHitterProtocol, "heavy_hitters", "heavy_hitters")
    tracer.instrument(fd_kernels, "spectral_decomposition", "accel")
    tracer.instrument(fd_kernels, "shrink_rows", "accel")
    tracer.instrument(wire_frames, "pack_frame", "wire")
    tracer.instrument(wire_frames, "unpack_frame", "wire")
    for name in ("push_batch", "push", "flush", "query", "stats", "save", "load"):
        tracer.instrument(ShardedTracker, name, "cluster")
    for name in ("submit", "call_all"):
        tracer.instrument(ProcessBackend, name, "cluster")
    tracer.instrument(EngineBackend, "join", "cluster")
    tracer.instrument(cluster_merge, "merge_answer", "cluster")
    tracer.instrument(cluster_sharding, "shard_of_rows", "cluster")
    for name in ("push", "query", "stats", "checkpoint"):
        tracer.instrument(GatewayClient, name, "gateway")


# -------------------------------------------------------------- small helpers
def median_seconds(fn: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        begin = clock()
        fn()
        samples.append(clock() - begin)
    return statistics.median(samples)


def spans_within(spans: Sequence[Span], window: Tuple[float, float]) -> List[Span]:
    return [span for span in spans if span.start >= window[0] and span.end <= window[1]]


def _site_ids(count: int, offset: int = 0) -> np.ndarray:
    return (np.arange(offset, offset + count, dtype=np.int64) % wl.NUM_SITES)


def _protocol_seconds(spec: str, params: Dict[str, Any], stream: Any, chunk: int) -> float:
    """Seconds a bare protocol's ``observe_batch`` takes over ``stream`` (no Tracker, no engine)."""
    protocol = repro.create(spec, **params)
    begin = clock()
    offset = 0
    for piece in wl.split(stream, chunk):
        protocol.observe_batch(_site_ids(len(piece), offset), piece)
        offset += len(piece)
    return clock() - begin


def _item_rate(spec: str, params: Dict[str, Any], items: Sequence[Any]) -> float:
    """Items/s of the per-item ``observe`` path."""
    protocol = repro.create(spec, **params)
    begin = clock()
    for index, item in enumerate(items):
        protocol.observe(index % wl.NUM_SITES, item)
    return len(items) / (clock() - begin)


# ----------------------------------------------------------------- the replays
class Replays:
    """Stage replays for one workload; every method fills ``self.out``."""

    def __init__(self, workload: wl.Workload, tracer: Tracer, out: Dict[str, float]):
        self.workload = workload
        self.ctx = workload.ctx
        self.domain = workload.domain
        self.tracer = tracer
        self.out = out
        self.is_matrix = isinstance(self.domain, wl.MatrixDomain)
        self.remote = not isinstance(workload.front, wl.DirectFront)
        #: Rows one shard's kernel sees per push on this workload.
        self.kernel_chunk = self.domain.chunk // (wl.SHARDS if self.remote else 1)
        #: The bulk stream one kernel sees: all of it, or one shard's deal of it.
        self.kernel_stream = self.domain.bulk[::wl.SHARDS] if self.remote else self.domain.bulk
        rows = self.ctx.size(REPLAY_ROWS if self.is_matrix else REPLAY_ITEMS, 2048)
        self.stream = self.domain.bulk[:rows]
        breadth = self.ctx.size(BREADTH_ROWS if self.is_matrix else BREADTH_ITEMS, 1024)
        self.breadth = self.domain.bulk[:breadth]
        self.repeats = 5 if self.ctx.quick else 15
        #: When the serial twin of a remote workload ran (its engine spans are read there).
        self.serial_window: Any = None

    def run(self) -> None:
        self.streaming()
        if self.is_matrix:
            self.accel_and_sketch()
            self.matrix_protocols()
        else:
            self.heavy_hitter_protocols()
        twin = self.api()
        if self.remote:
            self.wire(twin)
            self.cluster()
        if isinstance(self.workload.front, wl.GatewayFront):
            self.gateway()

    # streaming -----------------------------------------------------------
    def streaming(self) -> None:
        chunk = self.stream[:self.kernel_chunk]
        partitioner = RoundRobinPartitioner(wl.NUM_SITES)
        indices = np.arange(len(chunk), dtype=np.int64)
        self.assign_seconds = median_seconds(
            lambda: partitioner.assign_batch(indices, chunk), self.repeats * 4)
        self.out["streaming.assign_ns_per_item"] = self.assign_seconds / len(chunk) * 1e9

    # accel + sketch -------------------------------------------------------
    def accel_and_sketch(self) -> None:
        sketch = FrequentDirections.from_epsilon(wl.DIMENSION, self.domain.epsilon)
        keep = sketch.sketch_size
        # A first-fill doubling buffer exactly as FD would see it mid-stream.
        middle = len(self.stream) // 2
        buffer = np.ascontiguousarray(self.stream[middle:middle + 2 * keep])
        self.out["accel.shrink_us"] = median_seconds(
            lambda: fd_kernels.shrink_rows(buffer, keep, "auto"), self.repeats * 4) * 1e6
        self.out["accel.shrink_exact_us"] = median_seconds(
            lambda: fd_kernels.shrink_rows(buffer, keep, "exact"), self.repeats * 4) * 1e6
        # The kernel P2 actually calls: a full spectrum of a site's residual
        # block, captured from a bare protocol run over the replay stream.
        captured: List[np.ndarray] = []
        current = p2_module.spectral_decomposition

        def capture(matrix: np.ndarray, *args: Any, **kwargs: Any) -> Any:
            captured.append(np.array(matrix, copy=True))
            return current(matrix, *args, **kwargs)

        p2_module.spectral_decomposition = capture
        try:
            _protocol_seconds(self.domain.spec, self.domain.params, self.stream,
                              self.kernel_chunk)
        finally:
            p2_module.spectral_decomposition = current
        if captured:
            residual = captured[-1]
            self.out["accel.spectral_us"] = median_seconds(
                lambda: fd_kernels.spectral_decomposition(residual, mode="auto"),
                self.repeats * 4) * 1e6
        begin = clock()
        for piece in wl.split(self.stream, self.kernel_chunk):
            sketch.append_batch(piece)
        self.out["sketch.fd_append_rows_per_s"] = len(self.stream) / (clock() - begin)
        self.out["sketch.fd_view_us"] = median_seconds(sketch.compacted_view,
                                                       self.repeats * 4) * 1e6

    # protocol families ----------------------------------------------------
    def _kernel_replay(self, spec: str) -> float:
        """The bare protocol over everything one kernel sees in a bulk pass; items/s."""
        seconds = _protocol_seconds(spec, self.domain.params, self.kernel_stream,
                                    self.kernel_chunk)
        self.kernel_chunk_seconds = seconds * self.kernel_chunk / len(self.kernel_stream)
        return len(self.kernel_stream) / seconds

    def matrix_protocols(self) -> None:
        params = self.domain.params
        self.out["matrix_tracking.p2_rows_per_s"] = self._kernel_replay("matrix/P2")
        self.out["matrix_tracking.p2_item_rows_per_s"] = _item_rate(
            "matrix/P2", params, self.stream[:self.ctx.size(8192, 512)])
        self.out["matrix_tracking.p1_rows_per_s"] = len(self.breadth) / _protocol_seconds(
            "matrix/P1", params, self.breadth, self.kernel_chunk)
        self.out["matrix_tracking.p3_rows_per_s"] = len(self.breadth) / _protocol_seconds(
            "matrix/P3", dict(params, seed=self.ctx.seed), self.breadth, self.kernel_chunk)

    def heavy_hitter_protocols(self) -> None:
        params = self.domain.params
        self.out["heavy_hitters.p2_items_per_s"] = self._kernel_replay("hh/P2")
        pairs = list(zip(self.stream.elements.tolist(), self.stream.weights.tolist()))
        self.out["heavy_hitters.p2_item_items_per_s"] = _item_rate(
            "hh/P2", params, pairs[:self.ctx.size(32_768, 1024)])
        self.out["heavy_hitters.p1_items_per_s"] = len(self.breadth) / _protocol_seconds(
            "hh/P1", params, self.breadth, self.kernel_chunk)
        self.out["heavy_hitters.p3_items_per_s"] = len(self.breadth) / _protocol_seconds(
            "hh/P3", dict(params, seed=self.ctx.seed), self.breadth, self.kernel_chunk)
        summary = WeightedMisraGries.from_epsilon(self.domain.epsilon)
        begin = clock()
        for piece in wl.split(self.stream, self.kernel_chunk):
            summary.update_batch(piece.elements, piece.weights)
        self.out["sketch.mg_update_items_per_s"] = len(self.stream) / (clock() - begin)

    # api -------------------------------------------------------------------
    def api(self) -> Tracker:
        """A twin in-process ``Tracker`` fed the replay stream; returned loaded."""
        spec, params = self.domain.spec, self.domain.params
        facade = Tracker.create(spec, chunk_size=wl.BULK_CHUNK, **params)
        # Tracker.push_batch's own time is its span minus the protocol call
        # inside it; a difference of two separately timed runs would drown
        # microseconds in the kernel's milliseconds.
        first_span = len(self.tracer.spans)
        offset = 0
        for piece in wl.split(self.stream, self.kernel_chunk):
            facade.push_batch(_site_ids(len(piece), offset), piece)
            offset += len(piece)
        replayed = self.tracer.spans[first_span:]
        own = self_times(replayed)
        self.push_batch_self_seconds = statistics.median(
            own[span.id] for span in replayed if span.name == "Tracker.push_batch")
        self.out["api.push_batch_self_us"] = self.push_batch_self_seconds * 1e6
        cursor = [0]

        def moved_epoch_query(which: str) -> float:
            samples = []
            for _ in range(self.repeats):
                site, item = self.domain.spare(cursor[0])
                cursor[0] += 1
                facade.push(site, item)
                begin = clock()
                facade.query(self.domain.queries[which])
                samples.append(clock() - begin)
            return statistics.median(samples) * 1e6

        self.out["api.query_answer_us"] = moved_epoch_query("answer")
        self.out["api.query_sketch_us"] = moved_epoch_query("sketch")
        query = self.domain.queries["answer"]
        facade.query(query)
        self.out["api.cache_hit_us"] = median_seconds(
            lambda: facade.query(query), self.repeats * 20) * 1e6
        for which in ("answer", "sketch"):
            answer = facade.query(self.domain.queries[which])
            self.out[f"api.to_json_{which}_us"] = median_seconds(
                answer.to_json, self.repeats) * 1e6
        path = self.ctx.scratch("twin.ckpt")
        try:
            self.out["api.save_ms"] = median_seconds(
                lambda: facade.save(path), self.repeats) * 1e3
            self.out["api.load_ms"] = median_seconds(
                lambda: Tracker.load(path), self.repeats) * 1e3
        finally:
            if os.path.exists(path):
                os.remove(path)
        return facade

    # wire ------------------------------------------------------------------
    def wire(self, twin: Tracker) -> None:
        share = MatrixRowBatch(values=np.ascontiguousarray(self.stream[:self.kernel_chunk]))
        frame = encode_command("submit", _shard_ingest, (share,))
        self.out["wire.chunk_frame_bytes"] = float(len(frame))
        self.pack_seconds = median_seconds(
            lambda: encode_command("submit", _shard_ingest, (share,)), self.repeats * 4)
        self.unpack_seconds = median_seconds(lambda: decode_command(frame), self.repeats * 4)
        self.out["wire.pack_chunk_us"] = self.pack_seconds * 1e6
        self.out["wire.unpack_chunk_us"] = self.unpack_seconds * 1e6
        materials = cluster_merge.shard_query_materials(twin, self.domain.queries["sketch"])
        self.out["wire.pack_sketch_reply_us"] = median_seconds(
            lambda: encode_reply("ok", materials), self.repeats) * 1e6
        blob = api_state.tracker_frame(twin)
        self.out["wire.state_bytes"] = float(len(blob))
        self.out["wire.encode_state_ms"] = median_seconds(
            lambda: api_state.tracker_frame(twin), self.repeats) * 1e3
        self.out["wire.decode_state_ms"] = median_seconds(
            lambda: api_state.tracker_from_frame(blob), self.repeats) * 1e3

    # cluster ---------------------------------------------------------------
    def _cluster_rate(self, backend: str) -> float:
        """Rows/s of the workload's own push sequence on another backend."""
        cluster = ShardedTracker.create(self.domain.spec, shards=wl.SHARDS, backend=backend,
                                        chunk_size=wl.BULK_CHUNK, **self.domain.params)
        try:
            begin = clock()
            for piece in wl.split(self.stream, self.domain.chunk):
                cluster.push_batch(piece)
            cluster.flush()
            return len(self.stream) / (clock() - begin)
        finally:
            cluster.close()

    def cluster(self) -> None:
        count = self.domain.chunk
        self.shard_assign_seconds = median_seconds(
            lambda: cluster_sharding.shard_of_rows(0, count, wl.SHARDS), self.repeats * 4)
        self.out["cluster.shard_assign_ns_per_item"] = self.shard_assign_seconds / count * 1e9
        # Two shard-sized trackers, each fed its round-robin half of the stream.
        shards = []
        for index in range(wl.SHARDS):
            shard = Tracker.create(self.domain.spec, chunk_size=wl.BULK_CHUNK,
                                   **self.domain.params)
            shard.run(np.ascontiguousarray(self.stream[index::wl.SHARDS]))
            shards.append(shard)
        sketch_query = self.domain.queries["sketch"]
        self.out["cluster.materials_sketch_us"] = median_seconds(
            lambda: cluster_merge.shard_query_materials(shards[0], sketch_query),
            self.repeats) * 1e6
        for which in ("answer", "sketch"):
            query = self.domain.queries[which]
            materials = [cluster_merge.shard_query_materials(shard, query) for shard in shards]
            self.out[f"cluster.merge_{which}_us"] = median_seconds(
                lambda: cluster_merge.merge_answer(query, materials), self.repeats) * 1e6
        with self.ctx.span("replay.serial_twin"):
            begin = clock()
            self.out["cluster.serial_rows_per_s"] = self._cluster_rate("serial")
            self.serial_window = (begin, clock())
        if isinstance(self.workload.front, wl.GatewayFront):
            return
        self.out["cluster.shm_rows_per_s"] = self._cluster_rate("shm")
        session = self.workload.front.session
        session.flush()
        self.out["cluster.call_rtt_us"] = median_seconds(
            lambda: session.query(FrobeniusSquared(), partial=True), self.repeats * 4) * 1e6
        rows = self.ctx.size(8192, 2048)
        pinned = _blas_probe(self.ctx, rows, pinned=True)
        unpinned = _blas_probe(self.ctx, rows, pinned=False)
        self.out["cluster.blas_unpinned_ratio"] = unpinned / pinned if pinned else 0.0

    # gateway ---------------------------------------------------------------
    def gateway(self) -> None:
        front = self.workload.front
        bodies = [{"rows": chunk.tolist()} for chunk in self.domain.chunks]
        begin = clock()
        encoded = [json.dumps(body, separators=(",", ":")) for body in bodies]
        self.encode_seconds_per_push = (clock() - begin) / len(bodies)
        self.out["gateway.push_body_bytes"] = float(len(encoded[0]))
        sketch_body = json.dumps(front.query("sketch"), separators=(",", ":"))
        self.out["gateway.client_parse_sketch_ms"] = median_seconds(
            lambda: json.loads(sketch_body), self.repeats) * 1e3
        self.out["obs.scrape_ms"] = median_seconds(front.client.metrics, self.repeats) * 1e3


def _blas_probe(ctx: wl.Context, rows: int, pinned: bool) -> float:
    """Rows/s of a 2-shard process-backend pass in a child, with or without BLAS pins."""
    env = dict(ctx.child_env)
    if not pinned:
        for name in BLAS_VARIABLES:
            env.pop(name, None)
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "blas_probe.py")
    output = run_child([sys.executable, probe, str(rows), str(ctx.seed)], env, timeout=120)
    return float(output.strip().splitlines()[-1])


# ---------------------------------------------------- putting a run together
def per_layer_metrics(workload: wl.Workload, result: wl.PhaseResult, tracer: Tracer,
                      reference_wall: float, rates: Dict[str, float]
                      ) -> Dict[str, Dict[str, Any]]:
    """Every declared per-layer metric for one traced run of ``workload``."""
    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    out.update(rates)
    front = workload.front
    marks = result.marks
    last_pass = result.pass_windows[-1]
    last_wall = last_pass[1] - last_pass[0]

    # Spans: who was busy on the writing thread while the last bulk pass ran
    # (the gateway's open-loop reader overlaps it on a thread of its own).
    reads = {span.id for span in tracer.spans if span.name.startswith("reader.")}
    own = layer_self_seconds(span for span in spans_within(tracer.spans, last_pass)
                             if span.layer in SPAN_LAYERS and span.request not in reads)
    for layer in SPAN_LAYERS:
        out[f"{layer}.bulk_self_share"] = own.get(layer, 0.0) / last_wall

    replays = Replays(workload, tracer, out)
    replays.run()

    # The engine's own share of an in-process run: live spans when the engine
    # ran here, otherwise the serial twin of the same push sequence.
    engine_spans = spans_within(tracer.spans, replays.serial_window or last_pass)
    engine_own = layer_self_seconds(engine_spans).get("streaming", 0.0)
    engine_total = sum(span.end - span.start for span in engine_spans
                       if span.name == "StreamingEngine.run")
    out["streaming.engine_self_share"] = engine_own / engine_total if engine_total else 0.0
    out["streaming.messages_total"] = float(result.pass_messages[-1])

    # Series the program exports, scraped around the last bulk pass.
    before, after = marks["bulk_begin"], marks["bulk_end"]
    out["accel.kernel_calls"] = series_delta(before, after, "repro_fd_svd_seconds_count")
    out["accel.compactions"] = series_delta(before, after, "repro_fd_compactions_total")
    # Summed over the processes that ran kernels, so divided by how many did.
    out["accel.svd_busy_share"] = series_delta(
        before, after, "repro_fd_svd_seconds_sum") / last_wall / (
            wl.SHARDS if replays.remote else 1)
    out["cluster.backend_call_ms"] = mean_delta_ms(
        marks["bulk_end"], marks["end"], "repro_backend_call_seconds")
    if replays.remote:
        out["cluster.submit_busy_share"] = result.submit_s[-1] / result.pass_walls[-1]
        out["cluster.flush_wait_share"] = result.drain_s[-1] / result.pass_walls[-1]
    if not isinstance(front, wl.GatewayFront):
        out["obs.scrape_ms"] = median_seconds(front.metrics_text, replays.repeats) * 1e3

    for name, metric in wl.demoted_metrics(result).items():
        out[name] = metric["value"]
    # Replays and server-side series are plain clock time, so the pass they are
    # set against is too: the last one, as the clock saw it.
    per_call = last_wall / len(workload.domain.chunks)
    if isinstance(front, wl.GatewayFront):
        _gateway_metrics(out, front, result, replays)
        stages = replays.encode_seconds_per_push + out["gateway.server_push_ms"] / 1e3
    elif replays.remote:
        parent = replays.shard_assign_seconds + wl.SHARDS * replays.pack_seconds
        worker = replays.unpack_seconds + replays.kernel_chunk_seconds
        stages = max(parent, worker)  # parent and workers overlap; the slower side paces
    else:
        stages = (replays.assign_seconds + replays.kernel_chunk_seconds
                  + replays.push_batch_self_seconds)
    out["bench.unattributed_share"] = 1.0 - stages / per_call
    out["bench.trace_overhead_share"] = (
        statistics.median(result.pass_walls) / reference_wall - 1.0)
    out["bench.host_slowdown"] = statistics.median(workload.ctx.host.readings)
    return {name: {"value": float(value), "unit": PER_LAYER[name][0]}
            for name, value in out.items()}


def _tail(samples: Sequence[float]) -> float:
    summary = summarize(samples)
    return summary["tail"] if summary["tail"] is not None else summary["median"]


def _gateway_metrics(out: Dict[str, float], front: wl.GatewayFront,
                     result: wl.PhaseResult, replays: Replays) -> None:
    marks = result.marks
    begin, end = marks["bulk_begin"], marks["end"]
    route = {"push": "/v1/push", "answer": "/v1/query/covariance", "sketch": "/v1/query/sketch"}
    histogram = "repro_gateway_request_seconds"
    out["gateway.server_push_ms"] = mean_delta_ms(
        marks["bulk_begin"], marks["bulk_end"], histogram, route=route["push"])
    out["gateway.server_query_answer_ms"] = mean_delta_ms(
        marks["cached_end"], marks["end"], histogram, route=route["answer"])
    out["gateway.server_query_sketch_ms"] = mean_delta_ms(
        begin, end, histogram, route=route["sketch"])
    # The server's histogram is plain clock time and covers the last pass only.
    client_push_ms = (statistics.median(samples[-1] for samples in result.chunk_s)
                      * result.pass_slowdowns[-1] * 1e3)
    out["gateway.wire_gap_push_ms"] = client_push_ms - out["gateway.server_push_ms"]
    out["gateway.push_tail_ms"] = _tail([s * 1e3 for chunk in result.chunk_s for s in chunk])
    out["gateway.fresh_answer_tail_ms"] = _tail(
        [s * 1e3 for probes in result.fresh_s["answer"] for s in probes])
    last_wall = result.pass_windows[-1][1] - result.pass_windows[-1][0]
    out["gateway.client_encode_share"] = (
        replays.encode_seconds_per_push * len(front.domain.chunks) / last_wall)
    out["gateway.coalesced_pushes"] = series_delta(
        begin, end, "repro_gateway_coalesced_pushes_total")
    out["gateway.not_modified"] = series_delta(begin, end, "repro_gateway_not_modified_total")
    idle_begin, idle_end = marks["cached_begin"], marks["cached_end"]
    asked = series_delta(idle_begin, idle_end, "repro_gateway_requests_total",
                         route=route["answer"])
    saved = (series_delta(idle_begin, idle_end, "repro_gateway_not_modified_total")
             + series_delta(idle_begin, idle_end, "repro_cache_hits_total"))
    out["gateway.cache_hit_ratio"] = saved / asked if asked else 0.0
    sketches = series_delta(begin, end, "repro_gateway_requests_total", route=route["sketch"])
    if sketches:
        out["gateway.sketch_response_bytes"] = series_delta(
            begin, end, "repro_gateway_response_bytes_total", route=route["sketch"]) / sketches
    by_kind: Dict[str, List[float]] = {"covariance": [], "sketch": []}
    for sample in front.reader_samples:
        by_kind[sample.tag].append(sample.latency * 1e3)
    if by_kind["covariance"]:
        out["gateway.contended_answer_p50_ms"] = statistics.median(by_kind["covariance"])
    if by_kind["sketch"]:
        out["gateway.contended_sketch_p50_ms"] = statistics.median(by_kind["sketch"])
    if front.reader_samples:
        out["gateway.reader_late_ms"] = statistics.fmean(
            sample.lateness for sample in front.reader_samples) * 1e3
