"""The transport-agnostic shard worker protocol, spoken in wire frames.

Every remote engine backend — the persistent-process backend's pipes and the
multi-host socket backend's TCP connections — drives its shard workers with
the same four commands, each one :mod:`repro.wire` frame:

=========  =================================================================
``launch``   args ``(builder,)`` or ``(builder, resume_seq)``; the worker
             constructs its shard ``Tracker`` by calling the
             (wire-encodable, dataclass) builder, primes its applied-seq
             counter from ``resume_seq`` (a recovery/handoff relaunch) and
             replies ``ready``
``submit``   fire-and-forget ``fn(tracker, *args)``; failures are held and
             reported at the next ``call`` (FIFO order is preserved)
``call``     run ``fn(tracker, *args)`` after all queued work and reply
             ``ok``/``error`` with the wire-encoded result
``stop``     end the session (no reply)
=========  =================================================================

``fn`` travels by qualified name (it must be a module-level function inside
the ``repro`` package — the rule the backends documented from day one) and
``args`` travel as wire values, so columnar ``WeightedItemBatch`` /
``MatrixRowBatch`` chunks, typed query objects and checkpoint payload
frames all cross process and host boundaries without pickle.  Replies are
wire frames too; a result the codec cannot represent degrades to an
``error`` reply naming the offending type (mirroring the old pickle
backend's ``_safe_send``), never a torn frame.

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

from typing import Any, Callable, Optional, Tuple

from ..obs.logging import get_logger, set_trace_id
from ..wire import WireDecodeError, pack_frame, peek_kind, unpack_frame
from ..wire.codec import WireEncodeError

_LOG = get_logger("repro.worker")

__all__ = [
    "COMMAND_KIND",
    "REPLY_KIND",
    "encode_command",
    "decode_command",
    "peek_command_op",
    "encode_reply",
    "unpack_reply",
    "decode_reply",
    "WorkerSession",
]

COMMAND_KIND = "repro/worker-command"
REPLY_KIND = "repro/worker-reply"


def encode_command(op: str, fn: Any = None, args: Tuple[Any, ...] = (), *,
                   seq: Optional[int] = None, trace: Optional[str] = None,
                   compress: bool = False, array_sink: Any = None) -> bytes:
    """Pack one command frame (``fn`` may be None for launch/stop).

    The op rides in the frame *kind* (``repro/worker-command:submit``) as
    well as the body, so a worker that cannot decode the body — a corrupted
    frame, an untrusted function reference — can still tell from the header
    whether the sender is waiting for a reply, and keep the command/reply
    protocol synchronized.  ``seq`` stamps the command with a monotonic
    sequence number for idempotent replay (omitted entirely when ``None``,
    so unsequenced frames are byte-identical to the pre-seq protocol).
    ``compress`` compresses the command frame (the socket backend's
    ``compress`` option); workers decode compressed and plain commands
    alike, so the knob is sender-local and needs no negotiation beyond the
    frame version.  ``array_sink`` diverts
    large array payloads out of band (the ``"shm"`` backend's
    shared-memory ring); the frame then carries references the receiver
    resolves via ``decode_command``'s ``array_source``.
    """
    body = {"op": op, "fn": fn, "args": tuple(args)}
    if seq is not None:
        body["seq"] = int(seq)
    if trace is not None:
        # Like seq: omitted entirely when absent, so untraced frames stay
        # byte-identical to the pre-trace protocol.
        body["trace"] = str(trace)
    return pack_frame(f"{COMMAND_KIND}:{op}", body,
                      compress=compress, array_sink=array_sink)


def decode_command(data: bytes, *, array_source: Any = None
                   ) -> Tuple[str, Any, Tuple[Any, ...], Optional[int]]:
    """Unpack a command frame into ``(op, fn, args, seq)``.

    A frame carrying a ``trace`` field re-binds the decoding context's
    trace ID (see :mod:`repro.obs.logging`) so worker-side log lines
    correlate with the originating gateway request; frames without one
    clear it.  The 4-tuple shape is unchanged — trace is context, not
    payload.
    """
    kind, body = unpack_frame(data, array_source=array_source)
    if kind != COMMAND_KIND and not kind.startswith(COMMAND_KIND + ":"):
        raise WireDecodeError(f"expected a worker command frame, got {kind!r}")
    if not isinstance(body, dict) or not isinstance(body.get("op"), str):
        raise WireDecodeError("malformed worker command body")
    seq = body.get("seq")
    if seq is not None and not isinstance(seq, int):
        raise WireDecodeError("malformed worker command seq")
    trace = body.get("trace")
    set_trace_id(trace if isinstance(trace, str) else None)
    try:
        return body["op"], body.get("fn"), tuple(body.get("args", ())), seq
    except TypeError as exc:
        raise WireDecodeError("malformed worker command body") from exc


def peek_command_op(data: bytes) -> Optional[str]:
    """Best-effort op of a command frame, from the header alone."""
    kind = peek_kind(data)
    if kind and kind.startswith(COMMAND_KIND + ":"):
        return kind[len(COMMAND_KIND) + 1:]
    return None


def encode_reply(status: str, value: Any, acked: Optional[int] = None) -> bytes:
    """Pack one reply frame, degrading unencodable values to an error reply.

    ``acked`` is the worker's applied-seq watermark; it rides every reply
    so the parent's replay machinery can observe worker progress without
    extra round trips.
    """
    body = {"status": status, "value": value}
    if acked is not None:
        body["acked"] = int(acked)
    try:
        return pack_frame(REPLY_KIND, body)
    except WireEncodeError as exc:
        from .backends import BackendError

        body["value"] = BackendError(
            f"shard reply could not be serialized: {exc}")
        body["status"] = "error"
        return pack_frame(REPLY_KIND, body)


def unpack_reply(data: bytes) -> Tuple[str, Any, Optional[int]]:
    """Unpack a reply frame, once, into ``(status, value, acked)``.

    ``acked`` is the applied-seq watermark the reply carries (``None`` if
    absent).
    """
    _, body = unpack_frame(data, expected_kind=REPLY_KIND)
    if not isinstance(body, dict) or not isinstance(body.get("status"), str):
        raise WireDecodeError("malformed worker reply body")
    acked = body.get("acked")
    return (body["status"], body.get("value"),
            acked if isinstance(acked, int) else None)


def decode_reply(data: bytes) -> Tuple[str, Any]:
    """Unpack a reply frame into ``(status, value)``."""
    return unpack_reply(data)[:2]


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
                if not self._launch(args):
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

    def _launch(self, args: Tuple[Any, ...]) -> bool:
        """Build the shard tracker; False ends the session (failed start).

        ``args`` is ``(builder,)`` for a fresh launch or
        ``(builder, resume_seq)`` for a recovery/handoff relaunch, where
        ``resume_seq`` primes the applied-seq counter so the replay of the
        parent's log continues exactly where the restored state left off.
        """
        try:
            if not 1 <= len(args) <= 2:
                raise ValueError(
                    f"launch takes (builder,) or (builder, resume_seq), "
                    f"got {len(args)} args"
                )
            builder = args[0]
            resume_seq = int(args[1]) if len(args) == 2 else 0
            self._tracker = builder()
            self._applied_seq = resume_seq
        except BaseException as exc:
            self._send(encode_reply("error", exc, self._applied_seq))
            return False
        self._send(encode_reply("ready", None, self._applied_seq))
        return True
