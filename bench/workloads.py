"""The four workloads: what is generated, what is pushed where, what is checked.

The three matrix workloads share one stream and one spec
(``make_pamap_like(seed=S)``, d=44, ``matrix/P2``, 10 sites, eps=0.1), so the
difference between their numbers *is* the cost of the layers each one adds:

``matrix_direct``   in-process ``Tracker``                       (kernel-bound)
``matrix_cluster``  ``ShardedTracker``, 2 shards, process backend (+cluster, +wire)
``matrix_gateway``  ``serve`` subprocess over HTTP/JSON            (+gateway)
``hh_direct``       in-process ``Tracker`` on ``hh/P2``            (the other half
                    of the code base; shares streaming/api, none of accel/FD)

Every workload is measured in identical *rounds* through a small *front*
adapter (the workload's front door).  One round is:

1. a *bulk pass* - the same exact item count into a fresh session;
2. ten *stations* - a further block each; after it the live answer is checked
   against the truth and the session is saved and reloaded;
3. repeated queries at an unchanged epoch;
4. *freshness probes* - push one item, then query until the answer includes it;
5. per-item pushes.

Steps 1 and 2 are fixed work, so message counts, error ratios and checkpoint
sizes depend on the seed alone, never on how fast the host happened to be.
Steps 3 to 5 last a fixed time each and come last because they move the
state by an amount that depends on the clock.  Rounds repeat until
``--seconds`` is used up, which gives every metric several samples of
identical work spread over the run (see :mod:`bench.stats` for why).
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    Covariance,
    Frequency,
    GatewayClient,
    HeavyHitters,
    ShardedTracker,
    SketchMatrix,
    Tracker,
)
from repro.api.queries import Answer
from repro import data as repro_data
from repro.streaming.items import WeightedItemBatch

from .calibrate import HostSpeed
from .loadgen import Ops, OpenLoopSample, open_loop_due_times, run_open_loop, timed_loop
from .procs import GatewayProcess, tree_memory_mb
from .series import local_metrics_text, parse_prometheus
from .stats import quiet_median, summarize
from .trace import Tracer

clock = time.perf_counter

NUM_SITES = 10
DIMENSION = 44
MATRIX_EPSILON = 0.1
HH_EPSILON = 0.05
SHARDS = 2
#: Rows/items per bulk push call on the in-process and cluster front doors.
BULK_CHUNK = 4096
#: Rows per HTTP push request (two shards see 128 each).
GATEWAY_CHUNK = 256
#: Open-loop reader beside the gateway writer: queries per second and the mix.
READER_RATE = 10.0
READER_MIX = ("covariance", "covariance", "covariance", "covariance", "sketch")
#: Blocks pushed after the bulk stream; each ends in an accuracy check and a checkpoint.
STATIONS = 10
#: (items in a bulk pass, items per station, spare items, items per push call) of the
#: stream matrix_direct and matrix_cluster share, and its self-test size.
MATRIX_SIZES = (49_152, BULK_CHUNK, 8_000, BULK_CHUNK)
MATRIX_SIZES_QUICK = (2048, 256, 300, 512)

#: A run is made of identical rounds; it never stops before this many.
MIN_ROUNDS = 2
#: Seconds each time-boxed loop of a round lasts.
LOOP_SECONDS = {"cached": 0.1, "fresh_answer": 0.4, "fresh_sketch": 0.5, "single": 0.4}
#: Iterations a loop stops at when every call leaves spans behind.
TRACED_LOOP_COUNT = {"cached": 40, "fresh_answer": 500, "fresh_sketch": 500, "single": 10}


# --------------------------------------------------------------------- context
@dataclass
class Context:
    """What one run of one workload is parameterised by."""

    seed: int
    seconds: float
    quick: bool
    out_dir: str
    child_env: Dict[str, str]
    ops: Ops = field(default_factory=Ops)
    tracer: Optional[Tracer] = None
    host: HostSpeed = field(default_factory=HostSpeed)

    def timed_loop(self, name: str, body: Callable[[int], None], min_count: int) -> List[float]:
        """Seconds per call of a time-boxed loop, divided by the host's slowdown around it.

        Traced, the loop also stops at a fixed count: every call leaves spans behind.
        """
        before = self.host.read()
        durations = timed_loop(LOOP_SECONDS[name] * (0.1 if self.quick else 1.0), body,
                               min_count=min_count,
                               max_count=TRACED_LOOP_COUNT[name] if self.tracer else None)
        slow = (before + self.host.read()) / 2.0
        return [seconds / slow for seconds in durations]

    def size(self, full: Any, quick: Any) -> Any:
        return quick if self.quick else full

    def span(self, name: str, layer: str = "bench") -> Any:
        return self.tracer.span(name, layer) if self.tracer else nullcontext()

    def scratch(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.abspath(os.path.join(self.out_dir, f"tmp-{os.getpid()}-{name}"))


# --------------------------------------------------------------------- domains
def split(stream: Any, size: int) -> List[Any]:
    return [stream[start:start + size] for start in range(0, len(stream), size)]


class Domain:
    """One run's inputs, cut into the bulk stream, the station blocks and spare items."""

    spec = ""
    epsilon = 0.0
    params: Dict[str, Any] = {}
    #: ``answer`` is the small everyday query, ``sketch`` the large one.
    queries: Dict[str, Any] = {}

    def cut(self, stream: Any, bulk: int, station: int, chunk: int) -> None:
        self.bulk = stream[:bulk]
        self.chunks = split(self.bulk, chunk)
        self.chunk = chunk
        self.stations = [split(stream[start:start + station], chunk)
                         for start in range(bulk, bulk + STATIONS * station, station)]
        self.spare_from = bulk + STATIONS * station

    def __len__(self) -> int:
        return len(self.bulk)


class MatrixDomain(Domain):
    """The shared matrix stream plus the truth the harness checks against."""

    spec = "matrix/P2"
    epsilon = MATRIX_EPSILON
    params = {"num_sites": NUM_SITES, "dimension": DIMENSION, "epsilon": MATRIX_EPSILON}
    queries = {"answer": Covariance(), "sketch": SketchMatrix()}

    def __init__(self, seed: int, bulk: int, station: int, spare: int, chunk: int):
        rows = repro_data.make_pamap_like(num_rows=bulk + STATIONS * station + spare,
                                          dimension=DIMENSION, seed=seed).rows
        self.cut(rows, bulk, station, chunk)
        self.spares = rows[self.spare_from:]

    def spare(self, index: int) -> Tuple[int, np.ndarray]:
        return index % NUM_SITES, self.spares[index % self.spares.shape[0]]

    def new_truth(self) -> Dict[str, Any]:
        return {"gram": np.zeros((DIMENSION, DIMENSION)), "frobenius": 0.0}

    def fold(self, truth: Dict[str, Any], entries: Sequence[Tuple[Optional[int], Any]]) -> None:
        rows = np.vstack([payload if site is None else payload[np.newaxis, :]
                          for site, payload in entries])
        truth["gram"] += rows.T @ rows
        truth["frobenius"] += float(np.einsum("ij,ij->", rows, rows))

    def error_over_bound(self, front: "Front", truth: Dict[str, Any], ops: Ops) -> float:
        """``|A^T A - C|_2 / (eps |A|_F^2)`` for the live Covariance answer."""
        answer = front.to_answer(front.query("answer"))
        ops.ok()
        error = float(np.linalg.norm(truth["gram"] - np.asarray(answer.estimate), 2))
        return error / (self.epsilon * truth["frobenius"])


class HeavyHitterDomain(Domain):
    """Zipfian weighted items (Section 6.1 of the paper) plus exact per-element truth."""

    spec = "hh/P2"
    epsilon = HH_EPSILON
    params = {"num_sites": NUM_SITES, "epsilon": HH_EPSILON}
    queries = {"answer": HeavyHitters(phi=0.05), "sketch": HeavyHitters(phi=1e-4)}
    universe = 10_000

    def __init__(self, seed: int, bulk: int, station: int, spare: int, chunk: int):
        generator = repro_data.ZipfianStreamGenerator(
            universe_size=self.universe, skew=2.0, beta=1000.0, seed=seed)
        sample = generator.generate(bulk + STATIONS * station + spare)
        self.cut(WeightedItemBatch.from_pairs(sample.items), bulk, station, chunk)
        self.spares = sample.items[self.spare_from:]

    def spare(self, index: int) -> Tuple[int, Tuple[int, float]]:
        return index % NUM_SITES, self.spares[index % len(self.spares)]

    def new_truth(self) -> Dict[str, Any]:
        return {"weights": np.zeros(self.universe), "total": 0.0}

    def fold(self, truth: Dict[str, Any], entries: Sequence[Tuple[Optional[int], Any]]) -> None:
        singles = [payload for site, payload in entries if site is not None]
        elements = [np.asarray(payload.elements, dtype=np.int64)
                    for site, payload in entries if site is None]
        weights = [np.asarray(payload.weights, dtype=np.float64)
                   for site, payload in entries if site is None]
        elements.append(np.array([element for element, _ in singles], dtype=np.int64))
        weights.append(np.array([weight for _, weight in singles], dtype=np.float64))
        truth["weights"] += np.bincount(np.concatenate(elements),
                                        weights=np.concatenate(weights), minlength=self.universe)
        truth["total"] += float(sum(column.sum() for column in weights))

    def error_over_bound(self, front: "Front", truth: Dict[str, Any], ops: Ops) -> float:
        """``max_e |f^_e - f_e| / (eps W)`` over the 100 heaviest and every reported element."""
        exact = truth["weights"]
        reported = front.to_answer(front.query("answer"))
        ops.ok()
        worst = 0.0
        for hitter in reported.estimate:
            worst = max(worst, abs(hitter.estimated_weight - exact[hitter.element]))
        for element in np.argsort(exact)[::-1][:100]:
            estimate = front.to_answer(front.typed(Frequency(element=int(element)))).estimate
            ops.ok()
            worst = max(worst, abs(estimate - exact[element]))
        return worst / (self.epsilon * truth["total"])


class IngestLog:
    """Every push the harness issued to the live session, in order.

    The truth for the accuracy check and the reference session for the
    gateway equality check are both rebuilt from this log, so they cover
    probes and per-item pushes, not only the bulk stream.  Appending is all
    that happens inside a timed loop; the truth is folded up when asked for.
    """

    def __init__(self, domain: Domain):
        self._domain = domain
        self.reset()

    def reset(self) -> None:
        self.entries: List[Tuple[Optional[int], Any]] = []  # (site or None, payload)
        self.count = 0
        self._folded = 0
        self._truth = self._domain.new_truth()

    def chunk(self, payload: Any) -> None:
        self.entries.append((None, payload))
        self.count += len(payload)

    def one(self, site: int, item: Any) -> None:
        self.entries.append((site, item))
        self.count += 1

    def truth(self) -> Dict[str, Any]:
        if self._folded < len(self.entries):
            self._domain.fold(self._truth, self.entries[self._folded:])
            self._folded = len(self.entries)
        return self._truth


# ---------------------------------------------------------------------- fronts
class Front:
    """A workload's front door: how items get in and answers come out."""

    single_batch = 200       # per-item pushes timed (and drained) as one unit
    cached_batch = 50        # repeated queries timed as one unit

    def __init__(self, ctx: Context, domain: Domain):
        self.ctx = ctx
        self.domain = domain

    def open(self) -> None: ...
    def close(self) -> None: ...
    def push_chunk(self, chunk: Any) -> None: ...
    def drain(self) -> Tuple[int, int]: ...
    def push_one(self, site: int, item: Any) -> None: ...
    def typed(self, query: Any) -> Any: ...
    def save(self, path: str) -> None: ...
    def load(self, path: str) -> "Front": ...
    def on_bulk_start(self) -> None: ...
    def on_bulk_end(self) -> None: ...

    def metrics_text(self) -> str:
        """Every series the session exports, in the scrape format."""
        return local_metrics_text()

    def query(self, which: str) -> Any:
        return self.typed(self.domain.queries[which])

    def to_answer(self, native: Any) -> Answer:
        return native

    def items_in(self, native: Any) -> int:
        return native.items_processed

    def document(self, native: Any) -> Dict[str, Any]:
        return native.to_dict()


class DirectFront(Front):
    """An in-process ``Tracker``: api -> streaming -> protocol -> accel/sketch."""

    session: Optional[Tracker] = None

    def open(self) -> None:
        self.session = Tracker.create(self.domain.spec, chunk_size=BULK_CHUNK,
                                      **self.domain.params)

    def close(self) -> None:
        self.session = None

    def push_chunk(self, chunk: Any) -> None:
        self.session.run(chunk)

    def drain(self) -> Tuple[int, int]:
        return self.session.items_processed, self.session.total_messages

    def push_one(self, site: int, item: Any) -> None:
        self.session.push(site, item)

    def typed(self, query: Any) -> Answer:
        return self.session.query(query)

    def save(self, path: str) -> None:
        self.session.save(path)

    def load(self, path: str) -> "DirectFront":
        loaded = DirectFront(self.ctx, self.domain)
        loaded.session = Tracker.load(path)
        return loaded


class ClusterFront(Front):
    """A ``ShardedTracker`` on the process backend: adds cluster and wire."""

    single_batch = 50
    backend = "process"
    session: Optional[ShardedTracker] = None

    def open(self) -> None:
        self.session = ShardedTracker.create(
            self.domain.spec, shards=SHARDS, backend=self.backend,
            chunk_size=BULK_CHUNK, **self.domain.params)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def push_chunk(self, chunk: Any) -> None:
        self.session.push_batch(chunk)

    def drain(self) -> Tuple[int, int]:
        self.session.flush()
        stats = self.session.stats()
        return stats.items_processed, stats.total_messages

    def push_one(self, site: int, item: Any) -> None:
        self.session.push(site, item)

    def typed(self, query: Any) -> Answer:
        return self.session.query(query)

    def save(self, path: str) -> None:
        self.session.save(path)

    def load(self, path: str) -> "ClusterFront":
        return self.restored(self.ctx, self.domain, path)

    @classmethod
    def restored(cls, ctx: Context, domain: Domain, path: str) -> "ClusterFront":
        loaded = cls(ctx, domain)
        loaded.session = ShardedTracker.load(path, backend=cls.backend)
        return loaded

    def metrics_text(self) -> str:
        return local_metrics_text(self.session.metrics_snapshot())


_KIND_OF_QUERY = {"Covariance": "covariance", "SketchMatrix": "sketch"}


class GatewayFront(Front):
    """``repro.cli serve`` in its own process, driven over HTTP/JSON.

    One closed-loop writer connection plus, during a bulk pass, one open-loop
    reader connection on its own thread: two connections for two cores.
    """

    single_batch = 10
    cached_batch = 1
    server: Optional[GatewayProcess] = None

    def __init__(self, ctx: Context, domain: Domain):
        super().__init__(ctx, domain)
        self.reader_samples: List[OpenLoopSample] = []

    def open(self) -> None:
        self.server = GatewayProcess(
            ["--spec", self.domain.spec, "--shards", str(SHARDS),
             "--backend", "process", "--open-metrics", "--listen", "127.0.0.1:0",
             "--num-sites", str(NUM_SITES), "--epsilon", repr(MATRIX_EPSILON),
             "--dimension", str(DIMENSION), "--chunk-size", str(BULK_CHUNK)],
            env=self.ctx.child_env).start()
        self.client = GatewayClient(self.server.url)

    def close(self) -> None:
        if self.server is not None:
            self.client.close()
            self.server.stop()
            self.server = None

    def push_chunk(self, chunk: np.ndarray) -> None:
        self.client.push(rows=chunk.tolist())

    def drain(self) -> Tuple[int, int]:
        stats = self.client.stats()
        return int(stats["items_processed"]), int(stats["total_messages"])

    def push_one(self, site: int, item: np.ndarray) -> None:
        self.client.push(rows=[item.tolist()], site_ids=[site])

    def typed(self, query: Any) -> Dict[str, Any]:
        return self.client.query(_KIND_OF_QUERY[type(query).__name__])

    def to_answer(self, native: Dict[str, Any]) -> Answer:
        document = dict(native)
        document.pop("partial", None)
        return Answer.from_dict(document)

    def items_in(self, native: Dict[str, Any]) -> int:
        return int(native["items_processed"])

    def document(self, native: Dict[str, Any]) -> Dict[str, Any]:
        return native

    def save(self, path: str) -> None:
        self.client.checkpoint(path)

    def load(self, path: str) -> "_LoadedGatewaySession":
        return _LoadedGatewaySession.restored(self.ctx, self.domain, path)

    def metrics_text(self) -> str:
        return self.client.metrics()

    # The open-loop reader: fixed schedule, latency timed from the due time.
    def on_bulk_start(self) -> None:
        self._reading = threading.Event()
        self._reading.set()
        reader = GatewayClient(self.server.url, etag_cache_size=0)
        # Far more slots than a pass can use; keep_going ends the loop.
        due = open_loop_due_times(clock() + 1.0 / READER_RATE, READER_RATE, 100_000)

        def send(index: int) -> str:
            kind = READER_MIX[index % len(READER_MIX)]
            with self.ctx.span(f"reader.{kind}", "gateway"):
                reader.query(kind)
            return kind

        def loop() -> None:
            try:
                self.reader_samples += run_open_loop(due, send, self._reading.is_set)
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                self._reader_error = exc
            finally:
                reader.close()

        self._reader_error: Optional[BaseException] = None
        self._reader_before = len(self.reader_samples)
        self._reader = threading.Thread(target=loop, name="bench-reader", daemon=True)
        self._reader.start()

    def on_bulk_end(self) -> None:
        self._reading.clear()
        self._reader.join(timeout=60.0)
        if self._reader.is_alive() or self._reader_error is not None:
            self.ctx.ops.fail(f"open-loop reader failed: {self._reader_error!r}")
        self.ctx.ops.ok(len(self.reader_samples) - self._reader_before)


class _LoadedGatewaySession(ClusterFront):
    """The checkpoint the served session wrote, restored the way an operator would.

    The gateway has no restore route, so a restart is ``ShardedTracker.load``;
    its answers are compared with the live gateway's as JSON documents.
    """

    def document(self, native: Answer) -> Dict[str, Any]:
        document = native.to_dict()
        document["partial"] = native.is_partial
        return document


# ---------------------------------------------------------------------- phases
@dataclass
class PhaseResult:
    """Raw samples of one run, round by round; :func:`end_to_end_metrics` reduces them."""

    items_per_pass: int = 0
    round_s: List[float] = field(default_factory=list)
    #: Every duration below except ``pass_windows`` is divided by the host
    #: slowdown measured around it (:mod:`bench.calibrate`).
    pass_walls: List[float] = field(default_factory=list)
    pass_windows: List[Tuple[float, float]] = field(default_factory=list)  # clock readings
    pass_slowdowns: List[float] = field(default_factory=list)  # what each pass was divided by
    pass_messages: List[int] = field(default_factory=list)
    submit_s: List[float] = field(default_factory=list)
    drain_s: List[float] = field(default_factory=list)
    #: seconds per bulk push call: one list per chunk of the stream, one entry per round
    chunk_s: List[List[float]] = field(default_factory=list)
    #: seconds per save / load: one list per station, one entry per round
    save_s: List[List[float]] = field(default_factory=lambda: [[] for _ in range(STATIONS)])
    load_s: List[List[float]] = field(default_factory=lambda: [[] for _ in range(STATIONS)])
    #: error ratio after the bulk pass and at every station; checkpoint size at every station
    errors: List[float] = field(default_factory=list)
    station_bytes: List[int] = field(default_factory=list)
    #: seconds per operation, one list per round
    cached_s: List[List[float]] = field(default_factory=list)
    fresh_s: Dict[str, List[List[float]]] = field(
        default_factory=lambda: {"answer": [], "sketch": []})
    single_s: List[List[float]] = field(default_factory=list)
    peak_memory_mb: float = 0.0
    #: Traced runs only: the exported series, scraped at named points of the last round.
    marks: Dict[str, Dict[str, float]] = field(default_factory=dict)


def mark(ctx: Context, front: Front, result: PhaseResult, label: str) -> None:
    if ctx.tracer is not None:
        result.marks[label] = parse_prometheus(front.metrics_text())


def warm_up(front: Front, domain: Domain) -> None:
    """First chunks, first query of each kind, first per-item push, first save/load."""
    for chunk in domain.chunks[:2]:
        front.push_chunk(chunk)
    front.push_one(*domain.spare(0))
    front.drain()
    for which in domain.queries:
        front.query(which)
    path = front.ctx.scratch("warm.ckpt")
    try:
        front.save(path)
        front.load(path).close()
    finally:
        if os.path.exists(path):
            os.remove(path)


def check_error(ctx: Context, front: Front, domain: Domain, log: IngestLog, where: str) -> float:
    error = domain.error_over_bound(front, log.truth(), ctx.ops)
    ctx.ops.check(error <= 1.0, f"err_over_bound {error:.4f} > 1 {where}")
    return error


def bulk_pass(ctx: Context, front: Front, domain: Domain, log: IngestLog,
              result: PhaseResult) -> None:
    """A fresh session, every chunk of the stream, wait until the last item is processed."""
    result.items_per_pass = len(domain)
    if not result.chunk_s:
        result.chunk_s = [[] for _ in domain.chunks]
    result.peak_memory_mb = max(result.peak_memory_mb, tree_memory_mb())
    front.close()
    front.open()
    log.reset()
    mark(ctx, front, result, "bulk_begin")
    before = ctx.host.read()
    front.on_bulk_start()
    chunk_s = []
    with ctx.span("bulk_pass"):
        begin = clock()
        for chunk in domain.chunks:
            sent = clock()
            front.push_chunk(chunk)
            chunk_s.append(clock() - sent)
            log.chunk(chunk)
        submitted = clock()
        items, messages = front.drain()
        end = clock()
    front.on_bulk_end()
    slow = (before + ctx.host.read()) / 2.0
    mark(ctx, front, result, "bulk_end")
    ctx.ops.ok(len(domain.chunks) + 1)
    for samples, seconds in zip(result.chunk_s, chunk_s):
        samples.append(seconds / slow)
    result.pass_walls.append((end - begin) / slow)
    result.pass_windows.append((begin, end))
    result.pass_slowdowns.append(slow)
    result.submit_s.append((submitted - begin) / slow)
    result.drain_s.append((end - submitted) / slow)
    result.pass_messages.append(messages)
    ctx.ops.check(items == len(domain), f"bulk pass processed {items} of {len(domain)} items")


def stations_phase(ctx: Context, front: Front, domain: Domain, log: IngestLog,
                   result: PhaseResult) -> None:
    """Ten further blocks; after each, check the answer, then save and reload the session.

    Site buffers fill and empty as the stream goes on, so one checkpoint is
    as large as the instant it was taken at; ten instants a block apart give
    a size (and an error ratio) that belongs to the stream, not the instant.
    """
    path = ctx.scratch("session.ckpt")
    result.errors = [check_error(ctx, front, domain, log, "after the bulk pass")]
    result.station_bytes = []
    try:
        for blocks, save_s, load_s in zip(domain.stations, result.save_s, result.load_s):
            with ctx.span("station_push"):
                for chunk in blocks:
                    front.push_chunk(chunk)
                    log.chunk(chunk)
                items, _ = front.drain()
            ctx.ops.ok(len(blocks) + 1)
            ctx.ops.check(items == log.count,
                          f"station: {items} items processed, {log.count} sent")
            result.errors.append(check_error(ctx, front, domain, log, "at a station"))
            slow = ctx.host.read()
            with ctx.span("checkpoint_save"):
                begin = clock()
                front.save(path)
                save_s.append((clock() - begin) / slow)
            result.station_bytes.append(os.path.getsize(path))
            with ctx.span("checkpoint_load"):
                begin = clock()
                loaded = front.load(path)
                load_s.append((clock() - begin) / slow)
            try:
                ctx.ops.ok(2)
                # The large answer costs a gateway round trip of a megabyte:
                # compared at the last station only, the small one at every.
                last = blocks is domain.stations[-1]
                for which in (domain.queries if last else ("answer",)):
                    ctx.ops.check(
                        loaded.document(loaded.query(which)) == front.document(front.query(which)),
                        f"reloaded checkpoint answers {which} differently")
            finally:
                result.peak_memory_mb = max(result.peak_memory_mb, tree_memory_mb())
                loaded.close()
    finally:
        if os.path.exists(path):
            os.remove(path)


def cached_phase(ctx: Context, front: Front, result: PhaseResult) -> None:
    """The same query again and again at an unchanged epoch."""
    reference = front.document(front.query("answer"))
    batch = front.cached_batch

    def body(_: int) -> None:
        for _ in range(batch):
            front.query("answer")

    mark(ctx, front, result, "cached_begin")
    with ctx.span("cached_phase"):
        durations = ctx.timed_loop("cached", body, min_count=20)
    mark(ctx, front, result, "cached_end")
    result.cached_s.append([seconds / batch for seconds in durations])
    ctx.ops.ok(len(durations) * batch)
    ctx.ops.check(front.document(front.query("answer")) == reference,
                  "repeated query at an unchanged epoch changed its answer")


def fresh_phase(ctx: Context, front: Front, domain: Domain, log: IngestLog,
                result: PhaseResult, which: str, cursor: List[int]) -> None:
    """Push one item, then query: time until an answer that includes it is in hand."""

    def body(_: int) -> None:
        site, item = domain.spare(cursor[0])
        cursor[0] += 1
        with ctx.span(f"fresh_{which}"):
            front.push_one(site, item)
            native = front.query(which)
        log.one(site, item)
        ctx.ops.ok(2)
        ctx.ops.check(front.items_in(native) == log.count,
                      f"fresh {which} answer covers {front.items_in(native)} items, "
                      f"expected {log.count}")

    result.fresh_s[which].append(ctx.timed_loop(f"fresh_{which}", body, min_count=5))


def single_push_phase(ctx: Context, front: Front, domain: Domain, log: IngestLog,
                      result: PhaseResult, cursor: List[int]) -> None:
    """Per-item pushes through the front door, timed to the last item *processed*."""
    batch = front.single_batch

    def body(_: int) -> None:
        for _ in range(batch):
            site, item = domain.spare(cursor[0])
            cursor[0] += 1
            front.push_one(site, item)
            log.one(site, item)
        front.drain()

    with ctx.span("single_push_phase"):
        durations = ctx.timed_loop("single", body, min_count=3)
    result.single_s.append([seconds / batch for seconds in durations])
    ctx.ops.ok(len(durations) * (batch + 1))


# ------------------------------------------------------------------- workloads
class Workload:
    """Set-up, the measured rounds and the checks of one workload."""

    name = ""
    why = ""
    front_class: Callable[[Context, Domain], Front] = DirectFront

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def make_domain(self) -> Domain:
        raise NotImplementedError

    def setup(self) -> None:
        """Generate inputs from the seed, open the front door, warm everything once."""
        self.domain = self.make_domain()
        self.log = IngestLog(self.domain)
        self.front = self.front_class(self.ctx, self.domain)
        self.front.open()
        warm_up(self.front, self.domain)

    def teardown(self) -> None:
        front = getattr(self, "front", None)
        if front is not None:
            front.close()

    def measure(self) -> PhaseResult:
        """Identical rounds for as long as ``--seconds`` lasts, and at least two (quick: one)."""
        ctx = self.ctx
        result = PhaseResult()
        started = clock()
        while (len(result.round_s) < (1 if ctx.quick else MIN_ROUNDS)
               or clock() - started + max(result.round_s) <= ctx.seconds):
            begin = clock()
            self.round(result)
            result.round_s.append(clock() - begin)
        ctx.ops.check(len(set(result.pass_messages)) == 1,
                      f"message counts differ across rounds: {result.pass_messages}")
        self.final_checks()
        result.peak_memory_mb = max(result.peak_memory_mb, tree_memory_mb())
        return result

    def round(self, result: PhaseResult) -> None:
        ctx, front, domain, log = self.ctx, self.front, self.domain, self.log
        cursor = [1]
        bulk_pass(ctx, front, domain, log, result)
        stations_phase(ctx, front, domain, log, result)
        cached_phase(ctx, front, result)
        fresh_phase(ctx, front, domain, log, result, "answer", cursor)
        fresh_phase(ctx, front, domain, log, result, "sketch", cursor)
        single_push_phase(ctx, front, domain, log, result, cursor)
        mark(ctx, front, result, "end")
        items, _ = front.drain()
        ctx.ops.check(items == log.count, f"{items} items processed, {log.count} sent")
        check_error(ctx, front, domain, log, "at the end of a round")

    def final_checks(self) -> None:
        """Workload-specific checks at quiescence, on the last round's session."""


class MatrixDirect(Workload):
    name = "matrix_direct"
    why = ("In-process Tracker on matrix/P2: kernel-bound (accel, matrix_tracking, streaming, "
           "api do all the work); a transport or HTTP change must show nothing here.")

    def make_domain(self) -> MatrixDomain:
        return MatrixDomain(self.ctx.seed, *self.ctx.size(MATRIX_SIZES, MATRIX_SIZES_QUICK))


class HeavyHitterDirect(Workload):
    name = "hh_direct"
    why = ("In-process Tracker on hh/P2 over a Zipfian stream: the other half of the code; "
           "shares streaming/api with matrix_direct but none of accel/FD.")

    def make_domain(self) -> HeavyHitterDomain:
        return HeavyHitterDomain(self.ctx.seed, *self.ctx.size(
            (491_520, BULK_CHUNK, 50_000, BULK_CHUNK), (20_480, 1024, 2000, BULK_CHUNK)))


class MatrixCluster(MatrixDirect):  # the same stream, another front door
    name = "matrix_cluster"
    why = ("ShardedTracker, 2 shards, process backend, same stream as matrix_direct: adds "
           "shard assignment, wire frames and pipes without HTTP.")
    front_class = ClusterFront


class MatrixGateway(Workload):
    name = "matrix_gateway"
    why = ("serve subprocess, 2 shards, HTTP/JSON: one closed-loop writer beside an open-loop "
           "reader, then read-your-write probes, then cached 304 reads - the full stack.")
    front_class = GatewayFront

    def make_domain(self) -> MatrixDomain:
        return MatrixDomain(self.ctx.seed, *self.ctx.size(
            (8_192, 2 * GATEWAY_CHUNK, 2_000, GATEWAY_CHUNK), (1024, 128, 200, 128)))

    def final_checks(self) -> None:
        """At quiescence the served answers equal a direct ShardedTracker's, push for push."""
        reference = ShardedTracker.create(self.domain.spec, shards=SHARDS, backend="serial",
                                          chunk_size=BULK_CHUNK, **self.domain.params)
        try:
            for site, payload in self.log.entries:
                if site is None:
                    reference.push_batch(payload)
                else:
                    reference.push_batch(payload[np.newaxis, :], site_ids=[site])
            for which, query in self.domain.queries.items():
                expected = reference.query(query).to_dict()
                expected["partial"] = False
                self.ctx.ops.ok()
                self.ctx.ops.check(
                    self.front.query(which) == expected,
                    f"gateway {which} document differs from a direct ShardedTracker's")
        finally:
            reference.close()


WORKLOADS: Dict[str, Callable[[Context], Workload]] = {
    cls.name: cls for cls in (MatrixDirect, HeavyHitterDirect, MatrixCluster, MatrixGateway)
}


# --------------------------------------------------------------------- metrics
def _metric(value: float, unit: str, samples: Sequence[float] = (),
            rounds: Sequence[float] = ()) -> Dict[str, Any]:
    """A reported value, the plain median / supported tail / count of its raw samples,
    and the estimate each round gave on its own."""
    metric: Dict[str, Any] = {"value": float(value), "unit": unit}
    if len(samples) > 1:
        metric.update(summarize(samples))
    if len(rounds):
        metric["rounds"] = [float(estimate) for estimate in rounds]
    return metric


def _flat(nested: Sequence[Sequence[float]]) -> List[float]:
    return [value for values in nested for value in values]


def _over_rounds(estimates: Sequence[float], unit: str, samples: Sequence[float],
                 scale: float = 1.0, invert: bool = False) -> Dict[str, Any]:
    """The median over rounds of one estimate per round, in ``unit``."""
    def shown(seconds: float) -> float:
        return scale / seconds if invert else scale * seconds

    return _metric(shown(statistics.median(estimates)), unit,
                   [shown(seconds) for seconds in samples],
                   [shown(seconds) for seconds in estimates])


def _loop_metric(rounds: Sequence[Sequence[float]], unit: str, scale: float = 1.0,
                 invert: bool = False) -> Dict[str, Any]:
    """A time-boxed loop: each round's quietest window (windows never span two rounds)."""
    return _over_rounds([quiet_median(durations) for durations in rounds], unit,
                        _flat(rounds), scale, invert)


def _unit_metric(repeats_per_unit: Sequence[Sequence[float]], unit: str,
                 scale: float = 1.0) -> Dict[str, Any]:
    """Work units repeated once per round: each round's median over its units."""
    return _over_rounds([statistics.median(units) for units in zip(*repeats_per_unit)], unit,
                        _flat(repeats_per_unit), scale)


def end_to_end_metrics(result: PhaseResult,
                       setup_seconds: Sequence[float]) -> Dict[str, Dict[str, Any]]:
    """Reduce one run's samples to the end-to-end metrics (see :mod:`bench.stats`)."""
    items = result.items_per_pass
    return {
        "setup_s": _metric(statistics.median(setup_seconds), "s", setup_seconds),
        "ingest_items_per_s": _over_rounds(result.pass_walls, "items/s", result.pass_walls,
                                           scale=items, invert=True),
        "single_push_items_per_s": _loop_metric(result.single_s, "items/s", invert=True),
        "msgs_per_kitem": _metric(result.pass_messages[-1] * 1000.0 / items, "msgs/kitem"),
        "err_over_bound": _metric(statistics.median(result.errors), "ratio", result.errors),
        "fresh_answer_p50_ms": _loop_metric(result.fresh_s["answer"], "ms", 1e3),
        "fresh_sketch_p50_ms": _loop_metric(result.fresh_s["sketch"], "ms", 1e3),
        "checkpoint_save_ms": _unit_metric(result.save_s, "ms", 1e3),
        "checkpoint_load_ms": _unit_metric(result.load_s, "ms", 1e3),
        "checkpoint_bytes": _metric(statistics.median(result.station_bytes), "bytes",
                                    result.station_bytes),
        "peak_memory_mb": _metric(result.peak_memory_mb, "MB"),
    }


def demoted_metrics(result: PhaseResult) -> Dict[str, Dict[str, Any]]:
    """Front-door timings that did not repeat within a bound; reported with the per-layer set.

    One bulk push call: on the process backend it returns once the frame is
    in the pipe, so its time is back-pressure, not work.  A repeated query at
    an unchanged epoch: over HTTP its sub-millisecond round trip depends on
    which cores the scheduler put client and server on.
    """
    return {
        "bench.push_p50_ms": _unit_metric(result.chunk_s, "ms", 1e3),
        "bench.query_cached_p50_ms": _loop_metric(result.cached_s, "ms", 1e3),
    }
