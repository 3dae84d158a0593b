"""The asyncio serving gateway: many HTTP clients, one tracker.

:class:`Gateway` multiplexes any number of concurrent HTTP clients onto a
single :class:`~repro.api.Tracker` or
:class:`~repro.cluster.ShardedTracker`:

====== ======================== ===========================================
Method Route                    Purpose
====== ======================== ===========================================
POST   ``/v1/push``             batched ingest (``items`` or ``rows``)
GET    ``/v1/query/<kind>``     typed queries as ``Answer.to_dict()`` documents
POST   ``/v1/query/<kind>``     same, parameters in the request body
GET    ``/v1/stats``            items/message accounting snapshot
GET    ``/v1/healthz``          per-shard liveness + spec/shard identity
GET    ``/v1/metrics``          Prometheus text exposition (cluster-merged)
POST   ``/v1/checkpoint``       checkpoint the tracker to a server path
POST   ``/v1/admin/move_shard`` live shard handoff (socket backend)
====== ======================== ===========================================

Every document — body, answer, error — is JSON or a plain-data wire frame
by content negotiation (:mod:`repro.gateway.http`); both representations
go through the same validation, and a request that asks for nothing gets
JSON.

**Concurrency model.**  The asyncio event loop only parses HTTP and
renders small documents; the tracker is touched on executor threads (but
see ``_enqueue_push`` for one-item pushes), and a query's answer is encoded
in the executor job that computed it.
All *writes* (push, checkpoint, shard moves, stats) funnel through a
single-thread executor — the writer queue — so the transport order of
ingest batches is deterministic: batches hit the backend in exactly the
order their requests finished arriving, and nothing ever interleaves two
``push_batch`` fan-outs.  *Queries* run on a separate reader pool when the
backend advertises
:attr:`~repro.cluster.backends.EngineBackend.dispatch_concurrency_safe`
(per-shard FIFO snapshots make them barrier-free, so readers never block
the ingest path); on single-transport backends they share the writer
queue, which keeps them correct — and the HTTP side of ingest (accepting
connections, reading bodies) still proceeds concurrently either way.

Every route enforces bearer-token auth when the gateway has an
``auth_token``, a per-request deadline (``request_timeout``), and the
``max_body_bytes`` ingest limit (bytes on the wire, whichever the
representation); failures come back as structured
``{"error": {"status": ..., "message": ...}}`` documents.  Pass an
``ssl_context`` (e.g. from
:func:`repro.cluster.server_ssl_context`) to serve HTTPS.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import hmac
import secrets
import ssl
import threading
from collections import deque
from contextlib import nullcontext
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..api.queries import (
    ApproximationError,
    Covariance,
    Frequency,
    FrobeniusSquared,
    HeavyHitters,
    Norms,
    Query,
    SketchMatrix,
    TotalWeight,
    _jsonify,
)
from ..api.registry import DOMAIN_HEAVY_HITTERS, get_spec
from ..cluster.backends import BackendError
from ..cluster.sharded_tracker import ShardedTracker
from ..obs.logging import (
    TRACE_HEADER,
    current_trace_id,
    get_logger,
    new_trace_id,
    reset_trace_id,
    set_trace_id,
    trace_context,
)
from ..obs.metrics import (
    LATENCY_BUCKETS,
    REGISTRY,
    merge_snapshots,
    render_prometheus,
)
from ..utils.validation import check_weight_batch
from .http import (
    WIRE_TYPE,
    HttpError,
    Request,
    document_response,
    encode_document,
    error_response,
    read_request,
    render_response,
)

__all__ = ["Gateway", "QUERY_KINDS", "PROMETHEUS_CONTENT_TYPE"]

_LOG = get_logger("repro.gateway")

#: Content type of the ``/v1/metrics`` exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Per-route serving telemetry.  The route label is normalized through
#: ``_route_label`` (unknown paths collapse to ``"other"``) and the method
#: through ``_method_label`` (methods no route accepts collapse to
#: ``"other"``), so label cardinality is bounded by the route table, not by
#: client traffic.
_REQUESTS = REGISTRY.counter(
    "repro_gateway_requests_total", "HTTP requests served",
    labels=("route", "method", "status"))
_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_gateway_request_seconds",
    "Request latency from parsed request to rendered response",
    labels=("route",), buckets=LATENCY_BUCKETS)
_INFLIGHT = REGISTRY.gauge(
    "repro_gateway_inflight_requests", "Requests currently being handled")
_REQUEST_BYTES = REGISTRY.counter(
    "repro_gateway_request_body_bytes_total",
    "Request body bytes received", labels=("route",))
_RESPONSE_BYTES = REGISTRY.counter(
    "repro_gateway_response_bytes_total",
    "Response bytes written (headers included)", labels=("route",))
_NOT_MODIFIED = REGISTRY.counter(
    "repro_gateway_not_modified_total",
    "Conditional queries answered 304 from the ETag validator alone "
    "(zero executor hops)", labels=("route",))
_COALESCED = REGISTRY.counter(
    "repro_gateway_coalesced_pushes_total",
    "Push requests that rode a coalesced dispatch instead of their own "
    "(writer-queue hops saved)")

#: Default cap on one request body; a 1M-item weighted batch is ~30 MB of
#: JSON, so the default admits realistically large ingest batches while
#: bounding memory per in-flight request.
DEFAULT_MAX_BODY_BYTES = 32 * 1024 * 1024

DEFAULT_REQUEST_TIMEOUT = 30.0

#: Coalescing bounds: one merged dispatch never exceeds this many items /
#: this many request-body bytes.  The item bound keeps per-dispatch latency
#: flat; the byte bound keeps peak memory of a merged batch bounded.
DEFAULT_COALESCE_MAX_ITEMS = 32768
DEFAULT_COALESCE_MAX_BYTES = 8 * 1024 * 1024

#: Heavy-hitter elements a request may name: hashable scalars.
_ELEMENT_TYPES = (str, int, float, bytes, type(None))


def _float_param(request: Request, body: Any, name: str,
                 default: Optional[float]) -> Optional[float]:
    if isinstance(body, dict) and name in body:
        raw: Any = body[name]
    elif name in request.params:
        raw = request.params[name]
    else:
        return default
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise HttpError(400, f"query parameter {name!r} must be a number, "
                             f"got {raw!r}") from exc


def _element_param(request: Request, body: Any) -> Any:
    """The element of a frequency query: a body keeps its type, a query
    string value is tried as an integer first (URL parameters are untyped,
    and integer element labels are this repo's default)."""
    if isinstance(body, dict) and "element" in body:
        if not isinstance(body["element"], _ELEMENT_TYPES):
            raise HttpError(400, "a frequency query's 'element' must be a "
                                 "string or a number")
        return body["element"]
    if "element" in request.params:
        raw = request.params["element"]
        try:
            return int(raw)
        except ValueError:
            return raw
    raise HttpError(400, "frequency queries need an 'element' parameter")


def _build_heavy_hitters(request: Request, body: Any) -> Query:
    return HeavyHitters(phi=_float_param(request, body, "phi", 0.05))


def _build_frequency(request: Request, body: Any) -> Query:
    return Frequency(element=_element_param(request, body))


def _build_norms(request: Request, body: Any) -> Query:
    if not isinstance(body, dict) or "directions" not in body:
        raise HttpError(400, "norms queries need a JSON body with "
                             "'directions' (one vector or a list of them)")
    try:
        directions = np.asarray(body["directions"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise HttpError(400, f"malformed 'directions': {exc}") from exc
    return Norms(directions=directions)


#: Route-suffix → query builder; the response is always the typed answer's
#: ``to_dict()`` document, so ``Answer.from_dict`` re-hydrates it client-side.
QUERY_KINDS: Dict[str, Callable[[Request, Any], Query]] = {
    "heavy_hitters": _build_heavy_hitters,
    "frequency": _build_frequency,
    "total_weight": lambda request, body: TotalWeight(),
    "covariance": lambda request, body: Covariance(),
    "norms": _build_norms,
    "sketch": lambda request, body: SketchMatrix(),
    "frobenius": lambda request, body: FrobeniusSquared(),
    "error": lambda request, body: ApproximationError(),
}

_TRUE_VALUES = ("1", "true", "yes", "on")

#: Every document response depends on the request's ``Accept`` header.
_VARY = ("Vary", "Accept")


def _push_items(raw: Any) -> List[Tuple[Any, float]]:
    """A push's ``items`` as ``(element, weight)`` pairs, or a 400."""
    if raw is None:
        raise HttpError(400, "heavy-hitter push bodies need "
                             "'items': [[element, weight], ...]")
    if not isinstance(raw, (list, tuple)):
        raise HttpError(400, "'items' must be a list of [element, weight] "
                             "pairs")
    batch = []
    for index, item in enumerate(raw):
        if not (isinstance(item, (list, tuple)) and len(item) == 2
                and isinstance(item[0], _ELEMENT_TYPES)):
            raise HttpError(400, f"malformed 'items' entry {index}: expected "
                                 "[element, weight] with a string or number "
                                 "element")
        try:
            batch.append((item[0], float(item[1])))
        except (TypeError, ValueError, OverflowError) as exc:
            raise HttpError(400, f"malformed 'items' entry {index}: {exc}") \
                from exc
    try:
        check_weight_batch([weight for _, weight in batch])
    except ValueError as exc:
        raise HttpError(400, f"malformed 'items': {exc}") from exc
    return batch


def _push_rows(raw: Any, dimension: Optional[int]) -> np.ndarray:
    """A push's ``rows`` as a finite 2-d float64 array, or a 400."""
    if raw is None:
        raise HttpError(400, "matrix push bodies need 'rows': [[...], ...]")
    try:
        rows = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise HttpError(400, f"malformed 'rows': {exc}") from exc
    if rows.ndim != 2:
        raise HttpError(400, f"'rows' must be 2-d, got shape {rows.shape}")
    if dimension is not None and rows.shape[1] != dimension:
        raise HttpError(400, f"rows has {rows.shape[1]} columns but the "
                             f"stream dimension is {dimension}")
    if not np.isfinite(rows).all():
        raise HttpError(400, "'rows' contains non-finite values")
    return rows


def _push_sites(raw: Any, count: int,
                num_sites: Optional[int]) -> Optional[np.ndarray]:
    """A push's ``site_ids`` as an int64 array (``None`` if absent), or a 400."""
    if raw is None:
        return None
    try:
        sites = np.asarray(raw)
    except ValueError as exc:
        raise HttpError(400, f"malformed 'site_ids': {exc}") from exc
    if sites.ndim != 1 or (sites.size and sites.dtype.kind not in "iu"):
        raise HttpError(400, "'site_ids' must be a list of integers")
    if len(sites) != count:
        raise HttpError(400, f"site_ids has {len(sites)} entries for "
                             f"{count} items")
    if count and num_sites is not None and (
            sites.min() < 0 or sites.max() >= num_sites):
        raise HttpError(400, f"site indices must lie in [0, {num_sites}), "
                             f"got range [{sites.min()}, {sites.max()}]")
    return sites.astype(np.int64)


@dataclasses.dataclass(frozen=True)
class _RawResponse:
    """A handler result rendered before it reaches ``_dispatch``.

    ``/v1/metrics`` returns Prometheus text, a query answer is encoded in
    the executor job that computed it (with its ``ETag``), a revalidated
    query is a bodyless 304 and a degraded ``/v1/healthz`` returns its
    document under a 503 — all ride this carrier through the shared
    ``_respond`` plumbing instead of special-casing routes.
    """

    body: bytes
    status: int = 200
    content_type: str = "application/json"
    #: Extra response headers (e.g. ``ETag``); merged over the trace headers.
    headers: Tuple[Tuple[str, str], ...] = ()


@dataclasses.dataclass
class _QueuedPush:
    """One parsed push request waiting in the coalescing queue.

    The request's HTTP handler awaits ``future``; the writer thread
    resolves it with the per-request ack (or the dispatch error) after the
    batch — alone or merged with its queue neighbours — hits the tracker.
    """

    batch: Any                      # list of pairs (hh) or 2-d array (matrix)
    site_ids: Optional[np.ndarray]
    count: int
    nbytes: int                     # request body size (coalescing budget)
    future: asyncio.Future
    loop: asyncio.AbstractEventLoop
    trace: Optional[str]


def _etag_matches(header: Optional[str], etag: str) -> bool:
    """RFC 9110 ``If-None-Match``: any listed validator (or ``*``) matches."""
    if not header:
        return False
    if header.strip() == "*":
        return True
    return etag in (tag.strip() for tag in header.split(","))


def _merge_push_group(group: List[_QueuedPush]
                      ) -> Tuple[Any, Optional[np.ndarray]]:
    """Concatenate a run of queued pushes into one columnar batch.

    Arrival order is preserved item-for-item: entry ``i``'s items precede
    entry ``i+1``'s exactly as two separate dispatches would have.
    """
    if len(group) == 1:
        return group[0].batch, group[0].site_ids
    if isinstance(group[0].batch, np.ndarray):
        batch: Any = np.concatenate([entry.batch for entry in group], axis=0)
    else:
        batch = [item for entry in group for item in entry.batch]
    site_ids = None
    if group[0].site_ids is not None:
        site_ids = np.concatenate([entry.site_ids for entry in group])
    return batch, site_ids


def _resolve_future(future: asyncio.Future, result: Any,
                    error: Optional[BaseException]) -> None:
    """Complete a push future on its event loop (no-op if already done).

    The future may have been cancelled by the request deadline while its
    entry sat in the queue — the write still happens (same contract as the
    writer-executor path), only the ack has no one left to read it.
    """
    if future.done():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)


#: The methods each route accepts (``"/v1/query/"`` stands for every query
#: path).  ``Gateway._route`` enforces them, and the route and method
#: labels of the request counter are drawn from them.
_ROUTE_METHODS = {
    "/v1/healthz": ("GET",), "/v1/metrics": ("GET",), "/v1/stats": ("GET",),
    "/v1/push": ("POST",), "/v1/query/": ("GET", "POST"),
    "/v1/checkpoint": ("POST",), "/v1/admin/move_shard": ("POST",),
}
_KNOWN_ROUTES = tuple(route for route in _ROUTE_METHODS
                      if route != "/v1/query/")
_KNOWN_METHODS = frozenset(method for methods in _ROUTE_METHODS.values()
                           for method in methods)


def _method_label(method: str) -> str:
    """Collapse a request-line method onto the bounded method vocabulary."""
    return method if method in _KNOWN_METHODS else "other"


def _route_label(path: str) -> str:
    """Collapse a request path onto the bounded route-label vocabulary."""
    if path in _KNOWN_ROUTES:
        return path
    if path.startswith("/v1/query/"):
        kind = path[len("/v1/query/"):]
        return f"/v1/query/{kind}" if kind in QUERY_KINDS else "/v1/query/other"
    return "other"


class Gateway:
    """Serve one tracker to many concurrent HTTP clients.

    Parameters
    ----------
    tracker:
        The :class:`~repro.api.Tracker` or
        :class:`~repro.cluster.ShardedTracker` to serve.  The gateway
        dispatches to it but does not own it — closing the gateway leaves
        the tracker usable (and un-flushed ingest is flushed on ``stop()``).
    host / port:
        Listen endpoint; port ``0`` binds an ephemeral port (read
        :attr:`address` after :meth:`start`).
    auth_token:
        When set, every route but ``/v1/healthz`` (the open liveness
        probe) requires ``Authorization: Bearer <token>``; anything else
        gets a 401 with ``WWW-Authenticate``.
    max_body_bytes / request_timeout:
        Per-request body cap (413 beyond it) and deadline in seconds (504
        on expiry — the tracker work keeps its writer-queue slot, but the
        client is released).
    query_threads:
        Size of the reader pool used when the backend supports concurrent
        dispatch; ignored otherwise.
    coalesce_max_items / coalesce_max_bytes:
        Write-coalescing bounds: adjacent queued pushes merge into one
        columnar ``push_batch`` dispatch up to this many items / this many
        request-body bytes (arrival order preserved, per-request acks
        individually accurate).  ``coalesce_max_items=0`` disables
        coalescing — every push dispatches alone, exactly as before.
    open_metrics:
        When true, ``GET /v1/metrics`` joins ``/v1/healthz`` in the
        auth-exempt set so a Prometheus scraper does not need the bearer
        token.  Off by default — metric label values include spec names
        and routes, which some deployments treat as sensitive.
    ssl_context:
        Serve HTTPS instead of HTTP.
    """

    def __init__(self, tracker: Any, *, host: str = "127.0.0.1",
                 port: int = 0, auth_token: Optional[str] = None,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
                 query_threads: int = 8, open_metrics: bool = False,
                 coalesce_max_items: int = DEFAULT_COALESCE_MAX_ITEMS,
                 coalesce_max_bytes: int = DEFAULT_COALESCE_MAX_BYTES,
                 ssl_context: Optional[ssl.SSLContext] = None):
        self._tracker = tracker
        self._host = host
        self._port = int(port)
        self._auth_token = auth_token
        self._open_metrics = bool(open_metrics)
        self._max_body_bytes = int(max_body_bytes)
        self._request_timeout = float(request_timeout)
        self._ssl_context = ssl_context
        self._sharded = isinstance(tracker, ShardedTracker)
        #: Folded into every ETag: validators of two gateways never collide.
        self._etag_token = secrets.token_hex(8)
        spec = tracker.spec
        if spec is None:
            raise ValueError("the gateway needs a registry-created tracker "
                             "(tracker.spec is None)")
        self._spec = spec
        self._domain = get_spec(spec).domain
        # Pushes are checked against these before they queue, so a bad one
        # fails alone instead of failing the batch it would coalesce into.
        params = tracker.params
        self._num_sites = params.get("num_sites")
        self._dimension = params.get("dimension")
        # The single-writer queue: every tracker mutation goes through this
        # one thread, in event-loop submission order.
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-gateway-writer")
        # Writer jobs queued or running = submitted - finished; one thread
        # writes each count (the loop, the writer), so no update is lost.
        self._writer_submitted = self._writer_finished = 0
        # Parsed pushes waiting for the writer thread; adjacent compatible
        # entries coalesce into one dispatch (bounded below).
        self._push_queue: "deque[_QueuedPush]" = deque()
        self._push_lock = threading.Lock()
        self._coalesce_max_items = int(coalesce_max_items)
        self._coalesce_max_bytes = int(coalesce_max_bytes)
        concurrent_queries = bool(tracker.dispatch_concurrency_safe)
        self._reader = ThreadPoolExecutor(
            max_workers=max(1, int(query_threads)),
            thread_name_prefix="repro-gateway-reader",
        ) if concurrent_queries else self._writer
        self.concurrent_queries = concurrent_queries
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self._address: Optional[Tuple[str, int]] = None
        self.requests_served = 0

    # ------------------------------------------------------------- lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The resolved ``(host, port)`` endpoint (after startup)."""
        if self._address is None:
            raise RuntimeError("gateway not started")
        return self._address

    @property
    def url(self) -> str:
        """Base URL of the running gateway."""
        host, port = self.address
        scheme = "https" if self._ssl_context is not None else "http"
        return f"{scheme}://{host}:{port}"

    def start(self) -> "Gateway":
        """Serve in a background thread; returns once the port is bound."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-gateway", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        self._run_loop()
        if self._startup_error is not None:
            raise self._startup_error

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for a background serve loop; True once it has exited."""
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout=timeout)
        return not thread.is_alive()

    def stop(self) -> None:
        """Stop serving, drain the writer queue, release the executors."""
        loop, stop_requested = self._loop, self._stop_requested
        if loop is not None and stop_requested is not None \
                and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_requested.set)
            except RuntimeError:  # loop finished in between
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._writer.shutdown(wait=True)
        if self._reader is not self._writer:
            self._reader.shutdown(wait=True)

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except KeyboardInterrupt:  # pragma: no cover - interactive serve
            pass
        except BaseException as exc:
            self._startup_error = exc
        finally:
            self._started.set()
            try:
                loop.close()
            finally:
                asyncio.set_event_loop(None)

    async def _main(self) -> None:
        self._stop_requested = asyncio.Event()
        self._conn_tasks: set = set()
        server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._port,
            ssl=self._ssl_context)
        self._server = server
        self._address = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            await self._stop_requested.wait()
        finally:
            server.close()
            await server.wait_closed()
            # Idle keep-alive connections sit parked in read_request; cancel
            # them so the loop closes without abandoning their handlers.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)

    # ------------------------------------------------------------ connection
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self._max_body_bytes)
                except EOFError:
                    return
                except HttpError as err:
                    # Framing is broken; answer once and hang up.
                    writer.write(error_response(err.status, err.message,
                                                headers=err.headers,
                                                keep_alive=False))
                    await writer.drain()
                    return
                response = await self._respond(request)
                writer.write(response)
                await writer.drain()
                self.requests_served += 1
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            return
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):  # pragma: no cover
                pass

    async def _respond(self, request: Request) -> bytes:
        trace = request.headers.get(TRACE_HEADER) or new_trace_id()
        route = _route_label(request.path)
        started = perf_counter() if REGISTRY.enabled else None
        if REGISTRY.enabled:
            _INFLIGHT.add(1.0)
            if request.body:
                _REQUEST_BYTES.inc(len(request.body), route=route)
        token = set_trace_id(trace)
        try:
            response, status = await self._dispatch(request, trace)
        finally:
            reset_trace_id(token)
            if started is not None:
                elapsed = perf_counter() - started
                _INFLIGHT.add(-1.0)
                _REQUEST_SECONDS.observe(elapsed, route=route)
        if REGISTRY.enabled:
            _REQUESTS.inc(route=route, method=_method_label(request.method),
                          status=str(status))
            _RESPONSE_BYTES.inc(len(response), route=route)
        if _LOG.isEnabledFor(20):
            _LOG.info("request", extra={
                "route": route, "method": request.method, "status": status,
                "path": request.path, "trace_id": trace})
        return response

    async def _dispatch(self, request: Request,
                        trace: str) -> Tuple[bytes, int]:
        """Route + run one request; returns ``(response_bytes, status)``.

        Documents and errors follow the request's ``Accept`` header
        (``request.wants_wire``); pre-rendered responses carry their own
        content type.
        """
        trace_headers = {"X-Trace-Id": trace}
        document_headers = dict(trace_headers, Vary="Accept")
        wire, keep_alive = request.wants_wire, request.keep_alive
        try:
            self._check_auth(request)
            handler = self._route(request)
            # A payload already at hand skips the deadline's timer.
            payload = handler if isinstance(handler, (dict, _RawResponse)) \
                else await asyncio.wait_for(handler, self._request_timeout)
            if isinstance(payload, _RawResponse):
                headers = dict(trace_headers)
                headers.update(payload.headers)
                return render_response(
                    payload.status, payload.body,
                    content_type=payload.content_type, headers=headers,
                    keep_alive=keep_alive), payload.status
            return document_response(payload, headers=document_headers,
                                     keep_alive=keep_alive, wire=wire), 200
        except asyncio.TimeoutError:
            status, message = 504, (f"request exceeded the gateway's "
                                    f"{self._request_timeout:g}s deadline")
        except HttpError as err:
            document_headers = {**err.headers, **document_headers}
            status, message = err.status, err.message
        except (BackendError, TypeError, ValueError) as exc:
            # Tracker-level rejections (wrong-domain query, bad shapes,
            # unsupported backend operations) are the client's doing.
            status, message = 400, f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - last-resort server error
            status, message = 500, f"{type(exc).__name__}: {exc}"
        return error_response(status, message, headers=document_headers,
                              keep_alive=keep_alive, wire=wire), status

    def _check_auth(self, request: Request) -> None:
        if self._auth_token is None:
            return
        if request.path == "/v1/healthz":
            # The liveness probe stays open so orchestration (load
            # balancers, the CI job, GatewayClient's pre-connect) can wait
            # on readiness without holding the secret.
            return
        if request.path == "/v1/metrics" and self._open_metrics:
            return
        provided = request.headers.get("authorization", "")
        expected = f"Bearer {self._auth_token}"
        if not hmac.compare_digest(provided.encode("utf-8"),
                                   expected.encode("utf-8")):
            raise HttpError(401, "missing or invalid bearer token",
                            headers={"WWW-Authenticate": "Bearer"})

    # ---------------------------------------------------------------- routes
    def _route(self, request: Request) -> Any:
        """The request's payload: an awaitable, or a payload already at
        hand (an inline push's ack, a 304)."""
        path = request.path
        route = "/v1/query/" if path.startswith("/v1/query/") else path
        allowed = _ROUTE_METHODS.get(route)
        if allowed is None:
            raise HttpError(404, f"no such route: {path!r}")
        self._require(request.method, *allowed)
        if route == "/v1/healthz":
            return self._healthz(request.wants_wire)
        if route == "/v1/metrics":
            return self._metrics()
        if route == "/v1/stats":
            return self._run_write(self._do_stats)
        if route == "/v1/push":
            return self._push(request)
        if route == "/v1/query/":
            return self._query(request, path[len("/v1/query/"):])
        if route == "/v1/checkpoint":
            return self._checkpoint(request)
        return self._move_shard(request)

    @staticmethod
    def _require(method: str, *allowed: str) -> None:
        if method not in allowed:
            raise HttpError(405, f"method {method} not allowed here "
                                 f"(allowed: {', '.join(allowed)})",
                            headers={"Allow": ", ".join(allowed)})

    @staticmethod
    def _with_trace(fn: Callable[[], Any]) -> Callable[[], Any]:
        """Carry the event loop's trace ID into an executor thread.

        ``run_in_executor`` does not propagate contextvars, so the worker
        thread would otherwise emit logs and command frames without the
        request's trace ID.
        """
        trace = current_trace_id()
        if trace is None:
            return fn

        def bound() -> Any:
            with trace_context(trace):
                return fn()

        return bound

    def _writer_job(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the writer; the loop counted it when it submitted."""
        try:
            return fn()
        finally:
            self._writer_finished += 1

    def _run_write(self, fn: Callable[[], Any]) -> Awaitable[Any]:
        self._writer_submitted += 1
        return asyncio.get_running_loop().run_in_executor(
            self._writer, self._writer_job, self._with_trace(fn))

    def _run_read(self, fn: Callable[[], Any]) -> Awaitable[Any]:
        if self._reader is self._writer:
            return self._run_write(fn)
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(self._reader, self._with_trace(fn))

    async def _healthz(self, wire: bool) -> Any:
        shards = await self._run_write(self._tracker.liveness)
        healthy = all(state == "ok" for state in shards.values())
        payload = {
            "status": "ok" if healthy else "degraded",
            "spec": self._spec,
            "sharded": self._sharded,
            "shards": shards,
            "requests_served": self.requests_served,
        }
        if healthy:
            return payload
        body, content_type = encode_document(payload, wire)
        return _RawResponse(body, status=503, content_type=content_type,
                            headers=(_VARY,))

    async def _metrics(self) -> _RawResponse:
        text = await self._run_write(self._render_metrics)
        return _RawResponse(text.encode("utf-8"),
                            content_type=PROMETHEUS_CONTENT_TYPE)

    def _render_metrics(self) -> str:
        return render_prometheus(
            merge_snapshots(self._tracker.metrics_snapshot()))

    def _do_stats(self) -> Dict[str, Any]:
        return _jsonify(self._tracker.stats())

    # ------------------------------------------------------------------ push
    def _push(self, request: Request) -> Any:
        """Validate one push — whichever its body's representation — and
        queue it: the checks below are all that stand before the tracker."""
        body = request.document()
        if not isinstance(body, dict):
            raise HttpError(400, "push body must be a JSON object")
        if self._domain == DOMAIN_HEAVY_HITTERS:
            batch: Any = _push_items(body.get("items"))
        else:
            batch = _push_rows(body.get("rows"), self._dimension)
        count = len(batch)
        site_ids = _push_sites(body.get("site_ids"), count, self._num_sites)
        return self._enqueue_push(batch, site_ids, count, len(request.body))

    def _enqueue_push(self, batch: Any, site_ids: Optional[np.ndarray],
                      count: int, nbytes: int) -> Any:
        """Apply or queue one parsed push; return its ack or a future of it.

        A one-item push that finds the writer idle (no job queued or
        running, no push queued) is applied here on the event loop: its
        work is tens of µs, less than the hop to the writer and back.  Any
        other push queues and submits a drain job to the writer; the first
        drain job to run dispatches the pending run of compatible pushes as
        one ``push_batch``, later ones find an empty queue.  Either way one
        writer at a time applies pushes in event-loop arrival order.
        Trade-off: a socket shard that heals inside an inline push stalls
        the loop, so not even loop-served responses (304, 404, 401) flow
        meanwhile; a queued push heals on the writer thread instead.
        """
        if count == 1 and self._writer_submitted == self._writer_finished \
                and not self._push_queue:
            self._do_push(batch, site_ids)
            return {"accepted": 1}
        loop = asyncio.get_running_loop()
        entry = _QueuedPush(
            batch=batch, site_ids=site_ids, count=count, nbytes=nbytes,
            future=loop.create_future(), loop=loop, trace=current_trace_id())
        with self._push_lock:
            self._push_queue.append(entry)
        self._writer_submitted += 1
        self._writer.submit(self._writer_job, self._drain_pushes)
        return entry.future

    def _coalescible(self, head: _QueuedPush, nxt: _QueuedPush,
                     items: int, nbytes: int) -> bool:
        """Whether ``nxt`` may join a merged dispatch led by ``head``."""
        if items + nxt.count > max(self._coalesce_max_items, 0):
            return False
        if nbytes + nxt.nbytes > self._coalesce_max_bytes:
            return False
        if (head.site_ids is None) != (nxt.site_ids is None):
            return False  # explicit and partitioner-assigned sites never mix
        if isinstance(head.batch, np.ndarray) and (
                not isinstance(nxt.batch, np.ndarray)
                or head.batch.shape[1:] != nxt.batch.shape[1:]):
            return False  # a malformed row width fails alone, not the group
        return True

    def _drain_pushes(self) -> None:
        """Writer-thread side of the push path: dispatch pending entries.

        Pops the queue in arrival order, merging adjacent compatible
        entries up to the coalescing bounds into one columnar
        ``push_batch``; each merged request's future still resolves to its
        own ``{"accepted": n}`` ack, and a dispatch failure fails exactly
        the requests whose items were in it.
        """
        while True:
            with self._push_lock:
                if not self._push_queue:
                    return
                group = [self._push_queue.popleft()]
                items, nbytes = group[0].count, group[0].nbytes
                while self._push_queue and self._coalescible(
                        group[0], self._push_queue[0], items, nbytes):
                    entry = self._push_queue.popleft()
                    group.append(entry)
                    items += entry.count
                    nbytes += entry.nbytes
            try:
                batch, site_ids = _merge_push_group(group)
                with trace_context(group[0].trace) if group[0].trace \
                        else nullcontext():
                    self._do_push(batch, site_ids)
            except BaseException as exc:  # noqa: BLE001 - shipped to clients
                error: Optional[BaseException] = exc
            else:
                error = None
                if len(group) > 1 and REGISTRY.enabled:
                    _COALESCED.inc(len(group) - 1)
            for entry in group:
                result = None if error is not None \
                    else {"accepted": entry.count}
                try:
                    entry.loop.call_soon_threadsafe(
                        _resolve_future, entry.future, result, error)
                except RuntimeError:  # pragma: no cover - loop shut down
                    pass

    def _do_push(self, batch: Any, site_ids: Optional[Any]) -> None:
        if self._sharded:
            self._tracker.push_batch(batch, site_ids=site_ids)
        elif site_ids is not None:
            self._tracker.push_batch(site_ids, batch)
        else:
            self._tracker.run(batch, query_at_end=False)

    # --------------------------------------------------------------- queries
    def _query(self, request: Request, kind: str) -> Any:
        builder = QUERY_KINDS.get(kind)
        if builder is None:
            raise HttpError(404, f"unknown query kind {kind!r}; one of: "
                                 f"{', '.join(sorted(QUERY_KINDS))}")
        body = request.document() if request.method == "POST" else None
        query = builder(request, body)
        partial_raw = request.params.get("partial")
        if partial_raw is None and isinstance(body, dict):
            partial_raw = body.get("partial")
        partial = str(partial_raw).lower() in _TRUE_VALUES \
            if partial_raw is not None else False
        wire = request.wants_wire
        validators = request.headers.get("if-none-match")
        if validators and not partial:
            # A validator naming the state read now proves the client's
            # document current: 304 straight off the event loop.
            etag = self._etag_for(query, wire, self._tracker.watermark)
            if etag is not None and _etag_matches(validators, etag):
                if REGISTRY.enabled:
                    _NOT_MODIFIED.inc(route=_route_label(request.path))
                return _RawResponse(
                    b"", status=304, headers=(("ETag", etag), _VARY))
        return self._run_read(lambda: self._do_query(query, partial, wire))

    def _etag_for(self, query: Query, wire: bool,
                  label: Tuple[int, ...]) -> Optional[str]:
        """``"<spec>-<hash>"``: the validator of ``query`` answered at
        ``label``, the per-shard item counts of the state the answer read.

        The hash also folds in this gateway's random token (another gateway,
        or this one restarted, may reach equal counts with different data)
        and, for the wire representation, its media type: the JSON and the
        wire document of one state never share a validator.
        """
        try:
            key = query.cache_key()
        except TypeError:
            return None  # unhashable parameters have no stable validator
        identity = (self._etag_token, key, label, WIRE_TYPE if wire else "")
        digest = hashlib.sha1(repr(identity).encode("utf-8")).hexdigest()[:16]
        return f'"{self._spec}-{digest}"'

    def _do_query(self, query: Query, partial: bool,
                  wire: bool) -> _RawResponse:
        """Answer and encode in one executor job: a large answer's encoding
        never holds up the event loop (and every connection on it)."""
        answer, label = self._tracker._labelled_query(query, partial)
        document = answer.document()
        document["partial"] = answer.is_partial
        body, content_type = encode_document(document, wire)
        etag = None if label is None else self._etag_for(query, wire, label)
        headers = (_VARY,) if etag is None else (("ETag", etag), _VARY)
        return _RawResponse(body, content_type=content_type, headers=headers)

    # ----------------------------------------------------------------- admin
    def _checkpoint(self, request: Request) -> Awaitable[Any]:
        body = request.document()
        if not isinstance(body, dict) or not body.get("path"):
            raise HttpError(400, "checkpoint bodies need a server-side "
                                 "'path' to save to")
        path = str(body["path"])
        return self._run_write(lambda: self._do_checkpoint(path))

    def _do_checkpoint(self, path: str) -> Dict[str, Any]:
        self._tracker.save(path)
        return {"saved": path, "spec": self._spec}

    def _move_shard(self, request: Request) -> Awaitable[Any]:
        body = request.document()
        if not isinstance(body, dict) or "shard" not in body \
                or not body.get("address"):
            raise HttpError(400, "move_shard bodies need 'shard' (index) "
                                 "and 'address' (host:port)")
        if not self._sharded:
            raise HttpError(400, "move_shard needs a sharded tracker")
        try:
            shard = int(body["shard"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise HttpError(400, f"malformed shard index: {body['shard']!r}") \
                from exc
        address = str(body["address"])
        return self._run_write(lambda: self._do_move_shard(shard, address))

    def _do_move_shard(self, shard: int, address: str) -> Dict[str, Any]:
        self._tracker.move_shard(shard, address)
        return {
            "moved": shard,
            "address": address,
            "placement_version": self._tracker.placement_version,
        }
