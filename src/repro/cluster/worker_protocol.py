"""The transport-agnostic shard worker protocol, spoken in wire frames.

Every remote engine backend — the persistent-process backend's pipes and the
multi-host socket backend's TCP connections — drives its shard workers with
the same commands, each one :mod:`repro.wire` frame:

=========  =================================================================
``launch``   a launch command ``name`` and its args; the worker constructs
             its shard ``Tracker`` as ``builder(*args)``, primes its
             applied-seq counter from the frame's ``seq`` (a recovery or
             handoff relaunch) and replies ``ready``
``submit``   fire-and-forget ``fn(tracker, *args)``; failures are held and
             reported at the next ``call`` (FIFO order is preserved)
``ingest``   a ``submit`` of the shard write ``_shard_ingest(tracker,
             site_ids, batch)`` with a fixed-layout body instead of a value
             tree (below); the worker treats it exactly like a ``submit``
``call``     run ``fn(tracker, *args)`` after all queued work and reply
             ``ok``/``error`` with the wire-encoded result
``stop``     end the session (no reply)
=========  =================================================================

**The command table.**  ``fn`` travels as the name :func:`worker_command`
declared it under, and a worker runs only what its table holds.  A name the
table does not hold for the op fails to decode like a corrupted frame (a
``call`` or ``launch`` gets an error reply, a ``submit`` holds the error
for the next call); nothing a frame names is ever imported.  The cluster
layer declares the built-in commands where it defines them, and importing
this module imports all of :mod:`repro.cluster`, so forked and freshly
started workers serve the same table.  ``args`` travel as plain wire
values: a typed query as its ``(kind, fields)``, checkpoint payloads as
frame bytes, columnar batches as ``ingest`` frames (below).  Replies are
wire frames too; a result the codec cannot represent degrades to an
``error`` reply naming the offending type, never a torn frame.  An error
travels as ``{"type", "message"}`` and is rebuilt through a closed table of
exception types; any other type arrives as a ``RuntimeError`` naming it.

**The ``ingest`` body.**  Every batch a cluster pushes to a remote shard
travels as ``repro/worker-command:ingest``, in the ordinary frame envelope
(magic, version, flags, kind, length, CRC), with this body (little-endian)::

    size   field
    ----   -----------------------------------------------------------------
    8      seq (u64)
    4      trace ID length ``t`` (u32; 0 = untraced)
    t      trace ID (UTF-8)
    1      column count: 2 = matrix rows (sites, values), 3 = weighted items
           (sites, elements, weights)
    per column:
    1      dtype token length ``k``
    k      dtype token (NumPy ``dtype.str``: ``<i8``, ``<f8``, ``<U5``, ``|O``)
    1      storage: 0 = the bytes follow, 1 = an out-of-band reference
    1      rank ``r``
    8      payload length ``n`` (u64)
    8·r    shape (u64 each)
    n      payload: the raw little-endian array bytes; the codec value of
           an object column (labels that are not numbers, the one part that
           goes through :mod:`repro.wire.codec`); or, for storage 1, the
           reference's integers as u64 each

The sites column holds the shard's *local* site indices (``int64``).  The
socket backend's ``compress`` option deflates the body; the ``shm``
backend's ``array_sink`` takes columns of at least
:data:`~repro.wire.codec.MIN_OUT_OF_BAND_BYTES` into its ring (storage 1).
A parent and its workers must run the same release: a worker that predates
``ingest`` cannot read the body, cannot tell what the op expects, and ends
the session, which fails the parent's next call.

**Sequence numbers and idempotent replay.**  Every remote parent session
(:class:`~repro.cluster.backends.RemoteShardHandle`, on pipes and sockets
alike) stamps each ``submit`` with a monotonic ``seq``.  The worker
remembers the highest seq it has applied and silently drops any sequenced
submit at or below it, so a parent that reconnects after a transient
failure (the socket backend's replay log) can replay without ever
double-applying a chunk.  Every reply carries the worker's current applied
seq as ``acked``; the parent decodes each reply once (:func:`unpack_reply`)
and keeps that watermark on the handle (``acked_seq`` beside ``sent_seq``)
— a progress acknowledgment that rides the existing reply kind, no new
frame vocabulary.  A hand-built frame without a ``seq`` always applies.

:class:`WorkerSession` is the worker-side loop shared by every remote
transport (pipes in ``repro.cluster.backends`` / ``repro.cluster.shm``, TCP
in ``repro.cluster.socket_backend``): hand it ``recv``/``send`` callables
moving raw frame bytes and it serves one shard until ``stop`` or
disconnect.
"""

from __future__ import annotations

import struct
from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs.logging import get_logger, set_trace_id
from ..streaming.items import MatrixRowBatch, WeightedItemBatch
from ..wire import WireDecodeError, pack_frame, peek_kind, unpack_frame
from ..wire.codec import WireEncodeError, decode_value, encode_value
from ..wire.frames import pack_raw_frame, unpack_raw_frame

_LOG = get_logger("repro.worker")

__all__ = [
    "COMMAND_KIND",
    "REPLY_KIND",
    "encode_command",
    "encode_launch",
    "decode_command",
    "peek_command_op",
    "encode_reply",
    "unpack_reply",
    "worker_command",
    "WorkerSession",
]

COMMAND_KIND = "repro/worker-command"
REPLY_KIND = "repro/worker-reply"
INGEST_KIND = COMMAND_KIND + ":ingest"

_INGEST_HEAD = struct.Struct("<QI")     # seq, trace ID length
_COLUMN_HEAD = struct.Struct("<BBQ")    # storage, rank, payload length
_BYTE = struct.Struct("<B")
#: Column shapes by rank: sites, elements and weights are 1-d, rows 2-d.
_SHAPES = (struct.Struct("<"), struct.Struct("<Q"), struct.Struct("<QQ"))
_INLINE, _OUT_OF_BAND = 0, 1
#: Column dtype kinds an ``ingest`` body carries raw; ``O`` goes through the
#: codec.
_RAW_KINDS = "biufcUS"
_INT64 = np.dtype("<i8")
_FLOAT64 = np.dtype("<f8")

#: The worker's command table, filled by :func:`worker_command`: name ->
#: ``(launch, fn)``.  A launch entry builds the shard tracker as
#: ``fn(*args)``; every other entry runs as ``fn(tracker, *args)``.
_TABLE: Dict[str, Tuple[bool, Callable[..., Any]]] = {}
#: The shard write ``fn(tracker, site_ids, batch)``: its submits travel as
#: ``ingest`` frames, and every ``ingest`` frame decodes to it.
_INGEST_COMMAND = "_shard_ingest"
_RUNS = ("submit", "call", "launch")   # the ops that run a command


def worker_command(fn: Optional[Callable[..., Any]] = None, *,
                   launch: bool = False) -> Any:
    """Declare ``fn`` a worker command under its ``__name__``.

    ``@worker_command`` declares a ``submit``/``call`` command
    ``fn(tracker, *args)``; ``@worker_command(launch=True)`` a launch
    command ``fn(*args)`` that returns the shard's tracker.  A name is
    declared once (a second function under it is a ``ValueError``).
    """
    def declare(fn: Callable[..., Any]) -> Callable[..., Any]:
        if _TABLE.setdefault(fn.__name__, (launch, fn))[1] is not fn:
            raise ValueError(f"{fn.__name__!r} is already declared")
        return fn

    return declare if fn is None else declare(fn)


def _declared(op: str, name: Any) -> Callable[..., Any]:
    """The table's function for ``name`` in an ``op`` frame."""
    launch, fn = _TABLE.get(name, (None, None)) if isinstance(name, str) \
        else (None, None)
    if fn is None or launch != (op == "launch"):
        raise WireDecodeError(f"{name!r} is not a declared "
                              f"{'launch' if op == 'launch' else 'worker'} "
                              f"command")
    return fn


def encode_command(op: str, fn: Any = None, args: Tuple[Any, ...] = (), *,
                   seq: Optional[int] = None, trace: Optional[str] = None,
                   compress: bool = False, array_sink: Any = None) -> bytes:
    """Pack one command frame; ``fn`` is a declared command (None on stop).

    ``fn`` travels as its table name.  The op rides in the frame *kind*
    (``repro/worker-command:submit``) as well as the body, so a worker that
    cannot decode the body — a corrupted frame, a name its table does not
    hold — can still tell from the header whether the sender is waiting for
    a reply, and keep the command/reply protocol synchronized.  ``seq``
    stamps a ``submit`` with a monotonic sequence number for idempotent
    replay, and primes a ``launch``'s applied-seq counter (omitted entirely
    when ``None``, so unsequenced frames are byte-identical to the pre-seq
    protocol).  ``compress`` compresses the command frame (the socket
    backend's ``compress`` option); workers decode compressed and plain
    commands alike, so the knob is sender-local and needs no negotiation
    beyond the frame version.  ``array_sink`` diverts large array payloads
    out of band (the ``"shm"`` backend's shared-memory ring); the frame
    then carries references the receiver resolves via ``decode_command``'s
    ``array_source``.
    """
    name = getattr(fn, "__name__", None) if op in _RUNS else None
    if op in _RUNS and (fn is None
                        or _TABLE.get(name, (None, None))[1] is not fn):
        raise WireEncodeError(f"{fn!r} is not a declared worker command")
    # A columnar batch argument travels as its columns (the shard write
    # itself travels as an ``ingest`` frame, which rebuilds its batch).
    body = {"op": op, "fn": name,
            "args": tuple(vars(arg) if isinstance(
                arg, (MatrixRowBatch, WeightedItemBatch)) else arg
                for arg in args)}
    if seq is not None:
        body["seq"] = int(seq)
    if trace is not None:
        # Like seq: omitted entirely when absent, so untraced frames stay
        # byte-identical to the pre-trace protocol.
        body["trace"] = str(trace)
    return pack_frame(f"{COMMAND_KIND}:{op}", body,
                      compress=compress, array_sink=array_sink)


def encode_launch(builder: Any, *, resume_seq: Optional[int] = None,
                  **options: Any) -> bytes:
    """One ``launch`` of ``builder``: a declared launch command, or a
    :func:`functools.partial` of one over positional arguments.

    ``resume_seq`` primes the worker's applied-seq counter (a recovery or
    handoff relaunch); ``options`` are :func:`encode_command`'s.
    """
    if isinstance(builder, partial):
        if builder.keywords:
            raise WireEncodeError(
                "a launch carries positional arguments only, not "
                f"{sorted(builder.keywords)}")
        builder, args = builder.func, builder.args
    else:
        args = ()
    return encode_command("launch", builder, args, seq=resume_seq, **options)


def encode_submit(fn: Any, args: Tuple[Any, ...], *, seq: int,
                  trace: Optional[str] = None, compress: bool = False,
                  array_sink: Any = None) -> bytes:
    """One sequenced ``submit``: an ``ingest`` frame when ``fn`` is the
    shard write (``_INGEST_COMMAND``), the generic form otherwise."""
    if fn is not None and fn is _TABLE.get(_INGEST_COMMAND, (None, None))[1]:
        return encode_ingest(*args, seq=seq, trace=trace, compress=compress,
                             array_sink=array_sink)
    return encode_command("submit", fn, args, seq=seq, trace=trace,
                          compress=compress, array_sink=array_sink)


def encode_ingest(site_ids: Any, batch: Any, *, seq: int,
                  trace: Optional[str] = None, compress: bool = False,
                  array_sink: Any = None) -> bytes:
    """Pack one ``ingest`` frame: ``batch`` for the shard's local
    ``site_ids``, in the fixed layout of the module docstring."""
    if isinstance(batch, MatrixRowBatch):
        columns: Tuple[np.ndarray, ...] = (batch.values,)
    elif isinstance(batch, WeightedItemBatch):
        columns = (batch.elements, batch.weights)
    else:
        raise WireEncodeError(
            f"an ingest frame carries a WeightedItemBatch or a "
            f"MatrixRowBatch, not {type(batch).__name__}")
    trace_bytes = trace.encode("utf-8") if trace else b""
    parts: List[Any] = [_INGEST_HEAD.pack(seq, len(trace_bytes)), trace_bytes,
                        _BYTE.pack(1 + len(columns))]
    for column in (np.asarray(site_ids, dtype=_INT64), *columns):
        _pack_column(parts, column, array_sink)
    return pack_raw_frame(INGEST_KIND, b"".join(parts), compress=compress)


def _pack_column(parts: List[Any], column: np.ndarray,
                 array_sink: Any) -> None:
    if column.dtype.byteorder == ">":
        column = column.astype(column.dtype.newbyteorder("<"))
    storage = _INLINE
    if column.dtype.kind == "O":
        payload: Any = encode_value(column)
    else:
        column = np.ascontiguousarray(column)
        reference = None if array_sink is None else array_sink(column)
        if reference is None:
            payload = memoryview(column).cast("B")
        else:
            storage = _OUT_OF_BAND
            payload = struct.pack(f"<{len(reference)}Q", *reference)
    parts += (_token(column.dtype),
              _COLUMN_HEAD.pack(storage, column.ndim, len(payload)),
              _SHAPES[column.ndim].pack(*column.shape), payload)


@lru_cache(maxsize=32)
def _token(dtype: np.dtype) -> bytes:
    """A column's dtype token, with its length byte in front."""
    token = dtype.str.encode("ascii")
    return _BYTE.pack(len(token)) + token


@lru_cache(maxsize=32)
def _ingest_dtype(token: bytes) -> np.dtype:
    try:
        dtype = np.dtype(token.decode("ascii"))
    except (TypeError, ValueError, UnicodeDecodeError) as exc:
        raise WireDecodeError(f"bad dtype token {token[:32]!r}") from exc
    if (dtype.kind not in _RAW_KINDS and dtype.kind != "O"
            or dtype.fields is not None or dtype.str.encode() != token):
        raise WireDecodeError(
            f"dtype token {token[:32]!r} is not one an ingest column carries")
    return dtype


def _decode_ingest(body: Any, array_source: Any
                   ) -> Tuple[int, Optional[str], Tuple[np.ndarray, ...]]:
    """``(seq, trace, columns)`` of an ``ingest`` body, every count checked
    in plain-Python arithmetic before anything is allocated."""
    view = memoryview(body)
    size = len(view)
    seq, trace_length = _INGEST_HEAD.unpack_from(view, 0)
    offset = _INGEST_HEAD.size + trace_length
    if offset + 1 > size:
        raise WireDecodeError("ingest body truncated inside its header")
    trace = bytes(view[_INGEST_HEAD.size:offset]).decode("utf-8") or None
    (count,) = _BYTE.unpack_from(view, offset)
    offset += 1
    if count not in (2, 3):
        raise WireDecodeError(
            f"an ingest body has 2 or 3 columns, not {count}")
    columns = []
    for _ in range(count):
        (token_length,) = _BYTE.unpack_from(view, offset)
        end = offset + 1 + token_length
        if end > size:
            raise WireDecodeError("ingest body truncated inside a dtype token")
        dtype = _ingest_dtype(bytes(view[offset + 1:end]))
        storage, rank, length = _COLUMN_HEAD.unpack_from(view, end)
        offset = end + _COLUMN_HEAD.size
        if rank > 2:
            raise WireDecodeError(f"implausible ingest column rank {rank}")
        shape = _SHAPES[rank].unpack_from(view, offset)
        offset += _SHAPES[rank].size
        if offset + length > size:
            raise WireDecodeError(
                f"ingest column of {length} bytes overruns the "
                f"{size}-byte body")
        payload = view[offset:offset + length]
        offset += length
        columns.append(_ingest_column(dtype, shape, storage, payload,
                                      array_source))
    if offset != size:
        raise WireDecodeError(
            f"{size - offset} trailing bytes after an ingest body")
    return seq, trace, tuple(columns)


def _ingest_column(dtype: np.dtype, shape: Tuple[int, ...], storage: int,
                   payload: memoryview, array_source: Any) -> np.ndarray:
    if storage == _OUT_OF_BAND:
        if array_source is None or dtype.kind == "O" or len(payload) % 8:
            raise WireDecodeError(
                "ingest column carries an out-of-band reference that this "
                "worker cannot resolve")
        reference = struct.unpack(f"<{len(payload) // 8}Q", payload)
        column = array_source(dtype, shape, reference)
        if (not isinstance(column, np.ndarray) or column.shape != shape
                or column.dtype != dtype):
            raise WireDecodeError(
                "array source returned a mismatched ingest column")
        return column
    if storage != _INLINE:
        raise WireDecodeError(f"unknown ingest column storage {storage}")
    if dtype.kind == "O":
        column = decode_value(payload)
        if (not isinstance(column, np.ndarray) or column.dtype != dtype
                or column.shape != shape):
            raise WireDecodeError(
                f"ingest object column does not match its shape {shape}")
        return column
    count = 1
    for dim in shape:
        count *= dim
    if len(payload) != count * dtype.itemsize:
        raise WireDecodeError(
            f"ingest column of {len(payload)} bytes does not match dtype "
            f"{dtype.str} and shape {shape} "
            f"(expected {count * dtype.itemsize})")
    # Copied, as the codec does: the shard may keep rows past this frame.
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def _ingest_args(columns: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, Any]:
    """``(site_ids, batch)`` from decoded columns whose types and lengths
    agree; the batch skips validation, as ``take`` does."""
    sites, *data = columns
    rows = sites.shape
    if sites.dtype != _INT64 or len(rows) != 1:
        raise WireDecodeError("an ingest sites column is a 1-d int64 array")
    if len(data) == 1:
        (values,) = data
        if values.dtype != _FLOAT64 or values.ndim != 2 \
                or values.shape[0] != rows[0]:
            raise WireDecodeError(
                f"ingest rows must be a float64 ({rows[0]}, d) array")
        batch = object.__new__(MatrixRowBatch)
        object.__setattr__(batch, "values", values)
    else:
        elements, weights = data
        if (elements.shape != rows or weights.shape != rows
                or weights.dtype != _FLOAT64):
            raise WireDecodeError(
                f"ingest elements and float64 weights must have shape {rows}")
        batch = object.__new__(WeightedItemBatch)
        object.__setattr__(batch, "elements", elements)
        object.__setattr__(batch, "weights", weights)
    object.__setattr__(batch, "sites", None)
    return sites, batch


def decode_command(data: bytes, *, array_source: Any = None
                   ) -> Tuple[str, Any, Tuple[Any, ...], Optional[int]]:
    """Unpack a command frame into ``(op, fn, args, seq)``.

    A frame carrying a ``trace`` field re-binds the decoding context's
    trace ID (see :mod:`repro.obs.logging`) so worker-side log lines
    correlate with the originating gateway request; frames without one
    clear it.  The 4-tuple shape is unchanged — trace is context, not
    payload.  ``fn`` is the command table's function for the frame's name
    (None on ``stop``); a name the table does not hold for the op is a
    :class:`~repro.wire.WireDecodeError`.  An ``ingest`` frame decodes as
    the ``submit`` of the shard write it stands for.
    """
    if peek_kind(data) == INGEST_KIND:
        fn = _declared("submit", _INGEST_COMMAND)
        body = unpack_raw_frame(data, INGEST_KIND)
        try:
            seq, trace, columns = _decode_ingest(body, array_source)
            args = _ingest_args(columns)
        except WireDecodeError:
            raise
        except Exception as exc:
            raise WireDecodeError(
                f"malformed ingest body: {exc!r}") from exc
        set_trace_id(trace)
        return "submit", fn, args, seq
    kind, body = unpack_frame(data, array_source=array_source)
    if kind != COMMAND_KIND and not kind.startswith(COMMAND_KIND + ":"):
        raise WireDecodeError(f"expected a worker command frame, got {kind!r}")
    if not isinstance(body, dict) or not isinstance(body.get("op"), str):
        raise WireDecodeError("malformed worker command body")
    op = body["op"]
    seq = body.get("seq")
    if seq is not None and not isinstance(seq, int):
        raise WireDecodeError("malformed worker command seq")
    fn = _declared(op, body.get("fn")) if op in _RUNS else None
    trace = body.get("trace")
    set_trace_id(trace if isinstance(trace, str) else None)
    try:
        return op, fn, tuple(body.get("args", ())), seq
    except TypeError as exc:
        raise WireDecodeError("malformed worker command body") from exc


def peek_command_op(data: bytes) -> Optional[str]:
    """Best-effort op of a command frame, from the header alone.

    An ``ingest`` frame reads as ``submit``: that is what it is, and what
    its sender's reply discipline expects.
    """
    kind = peek_kind(data)
    if kind == INGEST_KIND:
        return "submit"
    if kind and kind.startswith(COMMAND_KIND + ":"):
        return kind[len(COMMAND_KIND) + 1:]
    return None


@lru_cache(maxsize=1)
def _error_types() -> Dict[str, type]:
    """The closed table of exception types an error reply rebuilds."""
    from ..api.state import CheckpointError
    from .backends import BackendError

    return {cls.__name__: cls for cls in (
        ArithmeticError, AssertionError, AttributeError, ConnectionError,
        EOFError, IndexError, KeyError, LookupError, MemoryError,
        NotImplementedError, OSError, OverflowError, RecursionError,
        RuntimeError, TimeoutError, TypeError, ValueError, ZeroDivisionError,
        WireDecodeError, WireEncodeError, CheckpointError, BackendError)}


def _error_from(document: Any) -> BaseException:
    """The exception an error reply's ``{"type", "message"}`` names."""
    kind, message = (document.get("type"), document.get("message")) \
        if isinstance(document, dict) else (None, repr(document))
    error_type = _error_types().get(kind) if isinstance(kind, str) else None
    return error_type(message) if error_type else RuntimeError(
        f"{kind}: {message}")


def encode_reply(status: str, value: Any, acked: Optional[int] = None) -> bytes:
    """Pack one reply frame, degrading unencodable values to an error reply.

    ``value`` is the result, or for ``status == "error"`` the exception.
    ``acked`` is the worker's applied-seq watermark; it rides every reply
    so the parent's replay machinery can observe worker progress without
    extra round trips.
    """
    if status == "error":
        value = {"type": type(value).__name__, "message": str(value)}
    body = {"status": status, "value": value}
    if acked is not None:
        body["acked"] = int(acked)
    try:
        return pack_frame(REPLY_KIND, body)
    except WireEncodeError as exc:
        body["value"] = {"type": "BackendError", "message":
                         f"shard reply could not be serialized: {exc}"}
        body["status"] = "error"
        return pack_frame(REPLY_KIND, body)


def unpack_reply(data: bytes) -> Tuple[str, Any, Optional[int]]:
    """Unpack a reply frame, once, into ``(status, value, acked)``.

    An ``error`` reply's value is the rebuilt exception; ``acked`` is the
    applied-seq watermark the reply carries (``None`` if absent).
    """
    _, body = unpack_frame(data, expected_kind=REPLY_KIND)
    if not isinstance(body, dict) or not isinstance(body.get("status"), str):
        raise WireDecodeError("malformed worker reply body")
    acked = body.get("acked")
    value = body.get("value")
    if body["status"] == "error":
        value = _error_from(value)
    return (body["status"], value, acked if isinstance(acked, int) else None)


class WorkerSession:
    """Serve one shard over any frame transport until ``stop``/disconnect.

    Parameters
    ----------
    recv:
        Callable returning the next raw command frame bytes; it should raise
        ``EOFError``/``ConnectionError``/``OSError`` when the peer is gone
        (the session then ends quietly, like a closed pipe).
    send:
        Callable shipping raw reply frame bytes back to the peer.
    decode:
        Override the command decoder — the ``shm`` backend resolves
        shared-memory array references while decoding.
    """

    def __init__(self, recv: Callable[[], bytes], send: Callable[[bytes], None],
                 decode: Callable[[Any], Tuple[str, Any, Tuple[Any, ...],
                                               Optional[int]]] = decode_command):
        self._recv = recv
        self._send = send
        self._decode = decode
        self._tracker: Any = None
        self._pending_error: Optional[BaseException] = None
        self._applied_seq = 0

    @property
    def applied_seq(self) -> int:
        """Highest submit sequence number applied (or primed at relaunch)."""
        return self._applied_seq

    def serve(self) -> None:
        """Run the command loop; returns when stopped or disconnected."""
        while True:
            try:
                data = self._recv()
            except (EOFError, ConnectionError, OSError):
                return
            try:
                op, fn, args, seq = self._decode(data)
            except WireDecodeError as exc:
                if not self._handle_undecodable(data, exc):
                    return
                continue
            if _LOG.isEnabledFor(10):  # DEBUG: one line per command frame,
                # carrying the frame's trace ID via the logging context.
                _LOG.debug("worker command",
                           extra={"op": op, "seq": seq,
                                  "fn": getattr(fn, "__name__", None)})
            if op == "stop":
                return
            if op == "launch":
                if not self._launch(fn, args, seq):
                    return
            elif op == "submit":
                if seq is not None:
                    if seq <= self._applied_seq:
                        continue  # idempotent replay: already applied
                    self._applied_seq = seq
                if self._pending_error is None:
                    try:
                        fn(self._tracker, *args)
                    except BaseException as exc:
                        self._pending_error = exc
            elif op == "call":
                if self._pending_error is not None:
                    self._send(encode_reply("error", self._pending_error,
                                            self._applied_seq))
                    self._pending_error = None
                else:
                    try:
                        result = fn(self._tracker, *args)
                    except BaseException as exc:
                        self._send(encode_reply("error", exc,
                                                self._applied_seq))
                    else:
                        self._send(encode_reply("ok", result,
                                                self._applied_seq))
            else:
                # An op this build does not know: we cannot tell whether the
                # sender awaits a reply, so any guess could desynchronize
                # the command/reply stream — end the session instead.
                return

    def _handle_undecodable(self, data: Any, exc: WireDecodeError) -> bool:
        """React to a command frame whose body failed to decode.

        The reply discipline must stay intact: a ``call``/``launch`` sender
        is blocked on a reply (send the error; launch then ends the
        session), a ``submit`` sender is not (hold the error for the next
        call, exactly like a failed submit ``fn``) — an unsolicited reply
        here would be consumed by the *next* call and shift every later
        reply one round back.  Returns False to end the session (op
        unknowable: the protocol state cannot be trusted).
        """
        op = peek_command_op(data)
        if op == "call":
            self._send(encode_reply("error", exc, self._applied_seq))
            return True
        if op == "submit":
            if self._pending_error is None:
                self._pending_error = exc
            return True
        if op == "launch":
            self._send(encode_reply("error", exc, self._applied_seq))
        return False

    def _launch(self, builder: Callable[..., Any], args: Tuple[Any, ...],
                resume_seq: Optional[int]) -> bool:
        """Build the shard tracker; False ends the session (failed start).

        ``resume_seq`` (a recovery/handoff relaunch) primes the applied-seq
        counter so the replay of the parent's log continues exactly where
        the restored state left off.
        """
        try:
            self._tracker = builder(*args)
            self._applied_seq = resume_seq or 0
        except BaseException as exc:
            self._send(encode_reply("error", exc, self._applied_seq))
            return False
        self._send(encode_reply("ready", None, self._applied_seq))
        return True
