"""Minimal HTTP/1.1 request/response plumbing over asyncio streams.

Deliberately small and built on the stdlib's asyncio streams: the gateway
speaks plain HTTP/1.1 with ``Content-Length`` bodies (no chunked
transfer, no multipart) and keep-alive connections so a load-testing
client can reuse one TCP (or TLS) connection for thousands of requests.  Everything a request can get
wrong — an oversized body, a malformed request line, a missing length —
surfaces as an :class:`HttpError` carrying the right status code, which
the server renders as a structured error document.

Documents — request bodies, answers, errors — travel in one of two
representations, chosen per request by content negotiation:

* ``application/json`` — the fallback: what a client that lists nothing
  in ``Accept`` (curl) gets, and what a body without a ``Content-Type`` is
  read as;
* ``application/x-repro-wire`` — one :mod:`repro.wire` frame of kind
  :data:`DOCUMENT_KIND` holding *plain data* only (arrays ship as their
  bytes; nothing is resolved by name, referenced twice or deflated).

A request body decodes by its ``Content-Type`` (anything else is a 415);
a response is wire when ``Accept`` lists the wire type and JSON otherwise.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

import numpy as np

from ..wire import WireDecodeError, pack_frame, unpack_frame

__all__ = [
    "DOCUMENT_KIND",
    "JSON_TYPE",
    "WIRE_TYPE",
    "HttpError",
    "Request",
    "decode_document",
    "encode_document",
    "media_type",
    "read_request",
    "render_response",
    "document_response",
    "error_response",
]

JSON_TYPE = "application/json"
WIRE_TYPE = "application/x-repro-wire"

#: Frame kind of every wire-encoded gateway document, in both directions.
DOCUMENT_KIND = "repro/gateway-document"

#: Cap on the request line + headers block; requests are tiny JSON affairs,
#: so 64 KiB of headers is already generous.
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request-level failure with the HTTP status it should produce."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Mapping[str, str]] = None):
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.headers = dict(headers or {})


def media_type(header: str) -> str:
    """The bare, lower-cased media type of a ``Content-Type`` value."""
    return header.partition(";")[0].strip().lower()


def encode_document(document: Any, wire: bool) -> Tuple[bytes, str]:
    """``(body, content type)`` of a document in the chosen representation.

    ``document`` is plain data whose arrays may still be ndarrays: a wire
    frame ships them verbatim, JSON writes them as nested lists.
    """
    if wire:
        return pack_frame(DOCUMENT_KIND, document, plain=True), WIRE_TYPE
    return (json.dumps(document, separators=(",", ":"),
                       default=_array_as_list).encode("utf-8"), JSON_TYPE)


def _array_as_list(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def decode_document(body: bytes, content_type: str) -> Any:
    """A document body back as plain data (wire arrays stay ndarrays).

    Raises :class:`~repro.wire.WireDecodeError` or ``ValueError`` on a
    body that is not a valid document of its type.
    """
    if media_type(content_type) == WIRE_TYPE:
        return unpack_frame(body, DOCUMENT_KIND, plain=True)[1]
    return json.loads(body)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str                       # raw request target, query string and all
    path: str                         # decoded path without the query string
    params: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)  # lower-cased names
    body: bytes = b""

    def document(self) -> Any:
        """The body decoded by its ``Content-Type`` (``None`` when empty).

        JSON — also assumed when the header is absent — or a wire frame of
        plain data; a malformed body is a 400, any other type a 415.
        """
        if not self.body:
            return None
        content_type = self.headers.get("content-type") or JSON_TYPE
        if media_type(content_type) not in (JSON_TYPE, WIRE_TYPE):
            raise HttpError(
                415, f"unsupported request body type "
                     f"{media_type(content_type)[:64]!r}; send {JSON_TYPE} "
                     f"or {WIRE_TYPE}")
        try:
            return decode_document(self.body, content_type)
        except WireDecodeError as exc:
            raise HttpError(400, f"request body is not a valid {WIRE_TYPE} "
                                 f"document: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") \
                from exc

    @property
    def wants_wire(self) -> bool:
        """Whether ``Accept`` lists the wire type, so the response should be
        a wire frame.  Wildcards do not count: ``*/*`` (curl's default)
        gets JSON."""
        return any(media_type(entry) == WIRE_TYPE
                   for entry in self.headers.get("accept", "").split(","))

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should survive this exchange (HTTP/1.1)."""
        return self.headers.get("connection", "").lower() != "close"


async def read_request(reader: asyncio.StreamReader, *,
                       max_body_bytes: int) -> Request:
    """Read and parse one request; raise ``EOFError`` on a clean close.

    Raises :class:`HttpError` for anything malformed or over limits — the
    connection handler renders it and (except for keep-alive-able 4xx on a
    parsed request) closes the stream, because after a framing error the
    byte stream can no longer be trusted.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed between requests") from exc
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "request head exceeds the header limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head exceeds the header limit")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported; "
                             "send Content-Length")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "malformed Content-Length") from exc
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > max_body_bytes:
            raise HttpError(
                413, f"request body of {length} bytes exceeds the gateway's "
                     f"{max_body_bytes}-byte limit")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "request body shorter than Content-Length") \
                from exc
    elif method in ("POST", "PUT", "PATCH"):
        # No length and no chunked support: an entity body cannot follow.
        # (A bodyless POST is fine — Content-Length: 0 or nothing at all.)
        pass
    split = urlsplit(target)
    params = {name: value for name, value in parse_qsl(split.query)}
    return Request(method=method, target=target, path=unquote(split.path),
                   params=params, headers=headers, body=body)


def render_response(status: int, body: bytes,
                    content_type: str = JSON_TYPE,
                    headers: Optional[Mapping[str, str]] = None,
                    keep_alive: bool = True) -> bytes:
    """Serialize one HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def document_response(document: Any, status: int = 200,
                      headers: Optional[Mapping[str, str]] = None,
                      keep_alive: bool = True, wire: bool = False) -> bytes:
    """A document in the negotiated representation as a complete response."""
    body, content_type = encode_document(document, wire)
    return render_response(status, body, content_type, headers=headers,
                           keep_alive=keep_alive)


def error_response(status: int, message: str,
                   headers: Optional[Mapping[str, str]] = None,
                   keep_alive: bool = True, wire: bool = False) -> bytes:
    """The gateway's structured error document."""
    return document_response({"error": {"status": status, "message": message}},
                             status=status, headers=headers,
                             keep_alive=keep_alive, wire=wire)
