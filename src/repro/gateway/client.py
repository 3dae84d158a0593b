"""A small stdlib client for the serving gateway.

:class:`GatewayClient` holds one keep-alive HTTP/1.1 socket (TLS through
``ssl_context``) and writes each request, headers and body, in one
``sendall`` with ``TCP_NODELAY`` set — a one-row push is one TCP segment.
It speaks the gateway's document
vocabulary: ``push`` for ingest, ``query``/``typed_query`` for answers
(the latter re-hydrating a real :class:`~repro.api.queries.Answer` via
``Answer.from_dict``), plus ``stats``/``healthz``/``metrics``/
``checkpoint``/``move_shard``.  Gateway-side failures raise :class:`GatewayError`
carrying the HTTP status and the structured error message.

Every request body is sent, and every response asked for, as
``application/x-repro-wire`` (arrays travel as their bytes); a response
is decoded by its ``Content-Type`` and its arrays turned back into lists,
so the documents callers get are the ``to_dict()`` shapes whichever
representation the gateway answered in.

The client is intentionally not thread-safe (one connection, sequential
request/response); concurrent load uses one client per thread.
"""

from __future__ import annotations

import socket
import ssl
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union
from urllib.parse import urlencode, urlsplit

import numpy as np

from ..api.queries import Answer
from ..wire import pack_frame
from .http import DOCUMENT_KIND, WIRE_TYPE, decode_document, media_type

__all__ = ["GatewayClient", "GatewayError"]

#: Default capacity of the client-side ETag→document cache (distinct query
#: shapes a dashboard rotates through; 0 disables conditional requests).
DEFAULT_ETAG_CACHE_SIZE = 32


class GatewayError(RuntimeError):
    """An error response (or transport failure) from the gateway."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.message = message


def _lists(value: Any) -> Any:
    """A decoded wire document with its arrays as nested lists (JSON's shape)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_lists(item) for item in value]
    return value


def _document(data: bytes, headers: Mapping[str, str]) -> Any:
    """A response body as a document, decoded by its ``Content-Type``."""
    if not data:
        return None
    content_type = headers.get("content-type", "")
    document = decode_document(data, content_type)
    return _lists(document) if media_type(content_type) == WIRE_TYPE \
        else document


def _error_message(document: Any, data: bytes) -> str:
    message = ""
    if isinstance(document, dict):
        message = document.get("error", {}).get("message", "")
    return message or repr(data[:200])


class GatewayClient:
    """Talk to one gateway over a persistent HTTP(S) connection."""

    def __init__(self, base_url: str, *, auth_token: Optional[str] = None,
                 timeout: float = 30.0, trace_id: Optional[str] = None,
                 etag_cache_size: int = DEFAULT_ETAG_CACHE_SIZE,
                 ssl_context: Optional[ssl.SSLContext] = None):
        split = urlsplit(base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ValueError(
                f"base_url must look like http(s)://host:port, got "
                f"{base_url!r}")
        self._host = split.hostname
        self._port = split.port or (443 if split.scheme == "https" else 80)
        self._https = split.scheme == "https"
        self._ssl_context = ssl_context
        self._timeout = float(timeout)
        self._auth_token = auth_token
        #: Optional trace ID sent as ``X-Trace-Id`` on every request, so a
        #: whole client session correlates in the gateway/worker logs.
        self._trace_id = trace_id
        self._sock: Optional[socket.socket] = None
        self._reader: Any = None  # buffered reader over ``_sock``
        # Conditional-GET plumbing: parsed query documents are remembered
        # per (method, path, body) with the gateway's ETag; repeats send
        # ``If-None-Match`` and a 304 re-serves the remembered document.
        self._etag_cache_size = max(0, int(etag_cache_size))
        self._etag_cache: "OrderedDict[Tuple[str, str, bytes], Tuple[str, Any]]" = OrderedDict()
        #: Conditional requests answered 304 (served from the local cache).
        self.not_modified = 0

    # ---------------------------------------------------------- plumbing
    def _connect(self) -> None:
        sock = socket.create_connection((self._host, self._port),
                                        timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._https:
            context = self._ssl_context or ssl.create_default_context()
            sock = context.wrap_socket(sock, server_hostname=self._host)
        self._sock, self._reader = sock, sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _exchange(self, method: str, path: str, body: Optional[bytes],
                  extra_headers: Optional[Mapping[str, str]] = None,
                  ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP round trip; returns ``(status, headers, raw_body)``.

        Response header names come back lower-cased (the gateway's own
        request-header convention).
        """
        host = f"[{self._host}]" if ":" in self._host else self._host
        headers = {"Host": f"{host}:{self._port}", "Content-Type": WIRE_TYPE,
                   "Accept": WIRE_TYPE}
        if self._trace_id is not None:
            headers["X-Trace-Id"] = self._trace_id
        if self._auth_token is not None:
            headers["Authorization"] = f"Bearer {self._auth_token}"
        if extra_headers:
            headers.update(extra_headers)
        if body is not None:
            headers["Content-Length"] = str(len(body))
        head = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        message = f"{method} {path} HTTP/1.1\r\n{head}\r\n".encode(
            "latin-1") + (body or b"")
        for attempt in (0, 1):
            try:
                if self._sock is None:
                    self._connect()
                self._sock.sendall(message)
                return self._read_response()
            except (OSError, ValueError):  # ValueError: a garbled response
                # A dropped keep-alive connection (gateway restart, idle
                # reap) gets one clean reconnect; a live failure re-raises.
                self.close()
                if attempt:
                    raise

    def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        """Status line, headers, then exactly ``Content-Length`` body bytes
        (up to EOF without one); closes the socket if the gateway will."""
        status_line = self._reader.readline(65537)
        if not status_line:
            raise ConnectionResetError("the gateway closed the connection")
        status, headers = int(status_line[9:12]), {}  # b"HTTP/1.1 200 OK"
        while (line := self._reader.readline(65537)).strip():
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = 0 if status in (204, 304) \
            else int(headers.get("content-length", -1))
        data = self._reader.read(length)  # a negative length reads to EOF
        if len(data) < length:
            raise ConnectionResetError("response shorter than its "
                                       "Content-Length")
        if length < 0 or headers.get("connection", "").lower() == "close":
            self.close()
        return status, headers, data

    def request(self, method: str, path: str,
                payload: Optional[Any] = None) -> Any:
        """One document round trip; returns the decoded response document.

        Query routes (``/v1/query/*``) are transparently conditional when
        the ETag cache is enabled: a repeat of a remembered request sends
        ``If-None-Match`` and a ``304 Not Modified`` re-serves the cached
        document without the gateway re-evaluating anything.
        """
        body = None if payload is None else \
            pack_frame(DOCUMENT_KIND, payload, plain=True)
        cache_key = None
        conditional: Optional[Dict[str, str]] = None
        cached: Optional[Tuple[str, Any]] = None
        if self._etag_cache_size and path.startswith("/v1/query/"):
            cache_key = (method, path, body or b"")
            cached = self._etag_cache.get(cache_key)
            if cached is not None:
                conditional = {"If-None-Match": cached[0]}
        status, response_headers, data = self._exchange(
            method, path, body, extra_headers=conditional)
        if status == 304 and cached is not None:
            self.not_modified += 1
            self._etag_cache.move_to_end(cache_key)
            # Top-level copy only: callers may pop keys (typed_query drops
            # "partial") without corrupting the cache, but nested values
            # are shared — a hit is a read-only snapshot, not a deep copy.
            document = cached[1]
            return dict(document) if isinstance(document, dict) else document
        document = _document(data, response_headers)
        if status >= 400:
            raise GatewayError(status, _error_message(document, data))
        if cache_key is not None and status == 200:
            etag = response_headers.get("etag")
            if etag:
                self._etag_cache[cache_key] = (etag, document)
                self._etag_cache.move_to_end(cache_key)
                while len(self._etag_cache) > self._etag_cache_size:
                    self._etag_cache.popitem(last=False)
                document = dict(document) if isinstance(document, dict) \
                    else document
        return document

    # ------------------------------------------------------------- routes
    def healthz(self) -> Dict[str, Any]:
        """The health document; a degraded cluster (503) still returns it.

        A gateway whose shards are unreachable answers 503 with the same
        JSON shape (``status: "degraded"`` and the per-shard states), and
        that report is the whole point of calling ``healthz`` — so it is
        returned, not raised.  Anything else error-shaped raises.
        """
        status, headers, data = self._exchange("GET", "/v1/healthz", None)
        document = _document(data, headers)
        if isinstance(document, dict) and "shards" in document:
            return document
        if status >= 400:
            raise GatewayError(status, _error_message(document, data))
        return document

    def metrics(self) -> str:
        """The ``/v1/metrics`` Prometheus text exposition (not JSON)."""
        status, _headers, data = self._exchange("GET", "/v1/metrics", None)
        if status >= 400:
            raise GatewayError(status, repr(data[:200]))
        return data.decode("utf-8")

    def stats(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/stats")

    def push(self, items: Optional[Sequence[Any]] = None,
             rows: Optional[Any] = None,
             site_ids: Optional[Sequence[int]] = None) -> Dict[str, Any]:
        """Ingest one batch: ``items`` ([element, weight] pairs) or ``rows``
        (anything ``numpy`` reads as a 2-d float array, shipped as one)."""
        payload: Dict[str, Any] = {}
        if items is not None:
            payload["items"] = [[element, float(weight)]
                                for element, weight in items]
        if rows is not None:
            payload["rows"] = np.asarray(rows, dtype=np.float64)
        if site_ids is not None:
            payload["site_ids"] = np.asarray(site_ids, dtype=np.int64)
        return self.request("POST", "/v1/push", payload)

    def query(self, kind: str, params: Optional[Dict[str, Any]] = None,
              body: Optional[Dict[str, Any]] = None,
              partial: bool = False) -> Dict[str, Any]:
        """One typed query; returns the raw ``Answer.to_dict()`` document."""
        if body is not None:
            payload = dict(body)
            if partial:
                payload["partial"] = True
            if params:
                payload.update(params)
            return self.request("POST", f"/v1/query/{kind}", payload)
        query: Dict[str, Any] = dict(params or {})
        if partial:
            query["partial"] = "true"
        suffix = f"?{urlencode(query)}" if query else ""
        return self.request("GET", f"/v1/query/{kind}{suffix}")

    def typed_query(self, kind: str, params: Optional[Dict[str, Any]] = None,
                    body: Optional[Dict[str, Any]] = None,
                    partial: bool = False) -> Answer:
        """Like :meth:`query` but re-hydrated into a typed ``Answer``."""
        document = self.query(kind, params=params, body=body, partial=partial)
        document.pop("partial", None)
        return Answer.from_dict(document)

    def checkpoint(self, path: Union[str, Any]) -> Dict[str, Any]:
        return self.request("POST", "/v1/checkpoint", {"path": str(path)})

    def move_shard(self, shard: int,
                   address: Union[str, Tuple[str, int]]) -> Dict[str, Any]:
        if isinstance(address, tuple):
            address = f"{address[0]}:{address[1]}"
        return self.request("POST", "/v1/admin/move_shard",
                            {"shard": int(shard), "address": address})
