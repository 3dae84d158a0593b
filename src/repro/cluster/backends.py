"""Engine backends: where shard trackers live and how work reaches them.

The cluster layer separates *what* runs on a shard (a full
:class:`~repro.api.tracker.Tracker` session) from *where* it runs.  An
:class:`EngineBackend` owns ``N`` shard slots, guarantees FIFO execution of
the work submitted to each slot, and exposes three primitives:

* ``submit(shard, fn, *args)`` — fire-and-forget; ``fn(tracker, *args)``
  runs on the shard after everything previously submitted to it,
* ``call(shard, fn, *args)`` / ``call_all(fn, *args)`` — run after the
  queued work and return the result(s); ``call_all`` fans out to every
  shard before collecting, so independent shards answer in parallel,
* ``join()`` — barrier until all queued work has drained.

``fn`` takes the shard's ``Tracker`` as its first argument.  The remote
backends send it by its name in the worker command table
(:func:`~repro.cluster.worker_protocol.worker_command`), so there it must
be a declared command; serial and thread shards run it in-process.

Five backends are registered, mirroring the protocol registry's
string-keyed :class:`BackendSpec` pattern:

=========  ==================================================================
``serial``   shards live in the caller's thread; zero overhead, the
             reference semantics every other backend must reproduce
``thread``   one worker thread per shard; overlaps the NumPy/BLAS portions
             of shard work (the GIL serialises pure-Python portions)
``process``  one **persistent** worker process per shard; columnar
             ``WeightedItemBatch``/``MatrixRowBatch`` chunks travel through
             a pipe as :mod:`repro.wire` frames, results come back the same
             way — true multi-core scaling for CPU-bound protocols
``shm``      ``process`` with large array payloads diverted out of the pipe
             through a per-shard shared-memory ring (same host) — see
             :mod:`repro.cluster.shm`
``socket``   shards live in ``repro-experiments worker --listen`` processes
             reached over TCP (any host); the same wire-frame worker
             protocol as ``process``, length-prefixed on the stream — see
             :mod:`repro.cluster.socket_backend`
=========  ==================================================================

The remote backends share one transport-agnostic worker protocol
(:mod:`repro.cluster.worker_protocol`): every command and reply is a wire
frame, so no pickle ever crosses a process or host boundary.  They also
share its parent side: :class:`RemoteShardHandle` is the one shard session
(seq stamps, deadlines and poisoning, one decode per reply, the launch
handshake) and :class:`RemoteBackend` the one launch fan-out and call
fan-out;
``process``, ``shm`` and ``socket`` only add how frame bytes move, and the
socket backend its replay log.  Backends
resolve by name through :func:`create_backend`; registering a new
:class:`BackendSpec` makes it reachable from
:class:`~repro.cluster.sharded_tracker.ShardedTracker`, the CLI
(``track --backend``) and the throughput benchmark at once.
"""

from __future__ import annotations

import abc
import contextlib
import multiprocessing
import queue
import threading
import warnings
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.logging import current_trace_id
from ..obs.metrics import LATENCY_BUCKETS, REGISTRY
from ..wire import WireDecodeError

# worker_protocol only imports this module lazily (for its error table), so
# the module-level import here is cycle-free and keeps the per-message hot
# path (one encode/decode per submitted chunk) free of repeated sys.modules
# lookups.
from .worker_protocol import (
    WorkerSession,
    encode_command,
    encode_launch,
    encode_submit,
    unpack_reply,
    worker_command,
)

__all__ = [
    "BackendError",
    "BackendSpec",
    "EngineBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "available_backends",
    "backend_registry_rows",
    "create_backend",
    "get_backend_spec",
]


class BackendError(RuntimeError):
    """A backend worker failed or the backend is unusable."""


#: Remote-shard session telemetry, recorded by :class:`RemoteShardHandle`
#: for every transport.  Labelled by shard index — bounded cardinality.
_CALL_SECONDS = REGISTRY.histogram(
    "repro_backend_call_seconds",
    "Round trip of one call command (send to decoded reply)",
    labels=("shard",), buckets=LATENCY_BUCKETS)
_DEADLINE_EXPIRIES = REGISTRY.counter(
    "repro_backend_deadline_expiries_total",
    "Replies that missed the configured io/reply deadline", labels=("shard",))


class EngineBackend(abc.ABC):
    """Owns ``N`` shard slots and executes work against them in FIFO order."""

    name: str = "abstract"

    #: True when submit/call may be issued from more than one caller thread
    #: at once.  Most backends multiplex one transport per shard (pipe,
    #: socket, shared-memory ring) from the dispatching thread's frames, so
    #: concurrent dispatch would interleave frames and corrupt the session —
    #: callers like the serving gateway must then funnel all dispatch
    #: through a single thread.  The thread backend's per-shard queues are
    #: genuinely thread-safe, so it opts in.
    dispatch_concurrency_safe: bool = False

    def __init__(self) -> None:
        self._num_shards = 0
        self._launched = False

    @property
    def num_shards(self) -> int:
        """Number of shard slots (0 before :meth:`launch`)."""
        return self._num_shards

    def launch(self, builders: Sequence[Callable[[], Any]]) -> None:
        """Create one shard per builder; each builder returns the shard Tracker.

        A remote backend sends each builder as a launch command: a
        function declared with ``worker_command(launch=True)``, or a
        :func:`functools.partial` of one over positional arguments (the
        builders of :mod:`repro.cluster.sharded_tracker`).  Serial and
        thread shards call any zero-argument callable.
        """
        if self._launched:
            raise BackendError("backend already launched")
        if not builders:
            raise ValueError("need at least one shard builder")
        self._num_shards = len(builders)
        self._launched = True
        self._launch(builders)

    @abc.abstractmethod
    def _launch(self, builders: Sequence[Callable[[], Any]]) -> None:
        """Backend-specific shard creation."""

    @abc.abstractmethod
    def submit(self, shard: int, fn: Callable, *args: Any) -> None:
        """Queue ``fn(tracker, *args)`` on ``shard`` (fire-and-forget)."""

    @abc.abstractmethod
    def call(self, shard: int, fn: Callable, *args: Any) -> Any:
        """Run ``fn(tracker, *args)`` on ``shard`` after queued work; return it."""

    def call_all(self, fn: Callable, *args: Any,
                 shards: Optional[Sequence[int]] = None) -> List[Any]:
        """Run ``fn`` on every shard and collect results in shard order.

        ``shards`` narrows the fan-out to those shard indices; the results
        then follow their order.  The default issues one blocking
        :meth:`call` per shard; parallel backends override it to overlap
        the per-shard work.
        """
        return [self.call(shard, fn, *args)
                for shard in self._fanout(shards)]

    def call_all_partial(self, fn: Callable, *args: Any
                         ) -> Tuple[List[Any], Dict[int, "BackendError"]]:
        """Run ``fn`` on every shard, collecting per-shard failures.

        The graceful-degradation form of :meth:`call_all`: instead of
        raising on the first failed shard, returns ``(results, errors)``
        where ``results[shard]`` is ``None`` for each failed shard and
        ``errors`` maps that shard index to its :class:`BackendError`.
        Callers (``ShardedTracker.query(..., partial=True)``) merge the
        live results and report the missing shards.
        """
        results: List[Any] = []
        errors: Dict[int, BackendError] = {}
        for shard in range(self._num_shards):
            try:
                results.append(self.call(shard, fn, *args))
            except BackendError as exc:
                results.append(None)
                errors[shard] = exc
        return results, errors

    def join(self) -> None:
        """Block until all submitted work has been executed on every shard."""
        self.call_all(_noop)

    @abc.abstractmethod
    def close(self) -> None:
        """Release workers; the backend is unusable afterwards (idempotent)."""

    def _fanout(self, shards: Optional[Sequence[int]]) -> Sequence[int]:
        """The shard indices a ``call_all`` goes to (default: all)."""
        if shards is None:
            return range(self._num_shards)
        return [self._check_shard(shard) for shard in shards]

    def _check_shard(self, shard: int) -> int:
        if not self._launched:
            raise BackendError("backend not launched")
        if not self._num_shards:  # launch needs >= 1 builder; close() zeroes
            raise BackendError("backend is closed")
        if not 0 <= shard < self._num_shards:
            raise ValueError(
                f"shard index {shard} out of range [0, {self._num_shards})"
            )
        return shard

    def __enter__(self) -> "EngineBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@worker_command
def _noop(tracker: Any) -> None:
    return None


# ------------------------------------------------------------------- serial
class SerialBackend(EngineBackend):
    """Shards live in the calling thread; submit/call execute immediately."""

    name = "serial"

    def _launch(self, builders: Sequence[Callable[[], Any]]) -> None:
        self._trackers = [builder() for builder in builders]

    def submit(self, shard: int, fn: Callable, *args: Any) -> None:
        fn(self._trackers[self._check_shard(shard)], *args)

    def call(self, shard: int, fn: Callable, *args: Any) -> Any:
        return fn(self._trackers[self._check_shard(shard)], *args)

    def close(self) -> None:
        self._trackers = []
        self._num_shards = 0


# ------------------------------------------------------------------- thread
#: Default seconds a backend waits for a worker to exit at shutdown before
#: escalating (threads: warn and abandon; processes: terminate, then kill).
DEFAULT_SHUTDOWN_TIMEOUT = 10.0


class _ThreadShard:
    """One worker thread draining a FIFO queue of (fn, args, result_box)."""

    def __init__(self, index: int, builder: Callable[[], Any],
                 shutdown_timeout: float = DEFAULT_SHUTDOWN_TIMEOUT):
        self._index = index
        self._queue: "queue.Queue" = queue.Queue()
        self._shutdown_timeout = float(shutdown_timeout)
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._loop, args=(builder,),
            name=f"repro-shard-{index}", daemon=True,
        )
        self._thread.start()

    def wait_started(self) -> None:
        """Block until the builder has run; raise its failure, if any."""
        self._started.wait()
        if self._start_error is not None:
            raise BackendError(f"shard {self._index} failed to start: "
                               f"{self._start_error!r}") from self._start_error

    def _loop(self, builder: Callable[[], Any]) -> None:
        try:
            tracker = builder()
        except BaseException as exc:
            # No tracker, no work loop: ``wait_started`` fails the launch.
            self._start_error = exc
            return
        finally:
            self._started.set()
        pending_error: Optional[BaseException] = None
        while True:
            work = self._queue.get()
            if work is None:
                return
            fn, args, result_box = work
            if result_box is None:            # fire-and-forget submit
                if pending_error is None:
                    try:
                        fn(tracker, *args)
                    except BaseException as exc:
                        pending_error = exc
                continue
            if pending_error is not None:     # report the deferred failure
                result_box.append(("error", pending_error))
                pending_error = None
            else:
                try:
                    result_box.append(("ok", fn(tracker, *args)))
                except BaseException as exc:
                    result_box.append(("error", exc))
            result_box.done.set()

    def submit(self, fn: Callable, args: tuple) -> None:
        self._queue.put((fn, args, None))

    def start_call(self, fn: Callable, args: tuple) -> "_ResultBox":
        box = _ResultBox()
        self._queue.put((fn, args, box))
        return box

    def stop(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=self._shutdown_timeout)
        if self._thread.is_alive():
            # Threads cannot be terminated; the daemon flag keeps a stuck
            # shard from blocking interpreter exit, but the abandonment
            # must be loud, not silent.
            warnings.warn(
                f"shard worker thread {self._thread.name} did not exit "
                f"within {self._shutdown_timeout:g}s and was abandoned "
                "(daemon thread; it dies with the process)",
                RuntimeWarning, stacklevel=2,
            )


class _ResultBox(list):
    """A one-slot result container with a completion event."""

    def __init__(self) -> None:
        super().__init__()
        self.done = threading.Event()

    def result(self) -> Any:
        self.done.wait()
        status, value = self[0]
        if status == "error":
            raise BackendError(f"shard worker failed: {value!r}") from value
        return value


class ThreadBackend(EngineBackend):
    """One worker thread per shard (FIFO per shard, shards run concurrently)."""

    name = "thread"
    # Per-shard queue.Queue dispatch: safe to submit/call from many threads.
    dispatch_concurrency_safe = True

    def __init__(self,
                 shutdown_timeout: float = DEFAULT_SHUTDOWN_TIMEOUT) -> None:
        super().__init__()
        self._shutdown_timeout = float(shutdown_timeout)

    def _launch(self, builders: Sequence[Callable[[], Any]]) -> None:
        self._shards = [_ThreadShard(index, builder,
                                     shutdown_timeout=self._shutdown_timeout)
                        for index, builder in enumerate(builders)]
        try:
            for shard in self._shards:
                shard.wait_started()
        except BaseException:
            self.close()
            raise

    def submit(self, shard: int, fn: Callable, *args: Any) -> None:
        self._shards[self._check_shard(shard)].submit(fn, args)

    def call(self, shard: int, fn: Callable, *args: Any) -> Any:
        return self._shards[self._check_shard(shard)].start_call(fn, args).result()

    def call_all(self, fn: Callable, *args: Any,
                 shards: Optional[Sequence[int]] = None) -> List[Any]:
        boxes = [self._shards[shard].start_call(fn, args)
                 for shard in self._fanout(shards)]
        return [box.result() for box in boxes]

    def close(self) -> None:
        for shard in getattr(self, "_shards", []):
            shard.stop()
        self._shards = []
        self._num_shards = 0


# ------------------------------------------------------------------ process
def _process_worker_main(conn: Any) -> None:
    """Worker loop: serve the shared worker protocol over a duplex pipe.

    The first command must be ``launch`` carrying the shard builder; every
    command/reply is a :mod:`repro.wire` frame moved with
    ``send_bytes``/``recv_bytes``.
    """
    # A fork-started worker inherits the parent's recorded series; drop
    # them so this process reports only its own work (snapshots are keyed
    # by hostname:pid, and the parent keeps its own copy).
    REGISTRY.reset()
    try:
        WorkerSession(conn.recv_bytes, conn.send_bytes).serve()
    finally:
        conn.close()


def _decode_reply_as_backend_errors(data: bytes
                                    ) -> Tuple[str, Any, Optional[int]]:
    """Decode a reply frame, folding decode failures into ``BackendError``.

    :func:`drain_call_all` only drains past ``BackendError``; any other
    exception type escaping the reply path would leave the remaining
    shards' replies unread and desynchronize every later call.
    """
    try:
        return unpack_reply(data)
    except Exception as exc:
        raise BackendError(f"shard reply could not be decoded: {exc!r}") from exc


class RemoteShardHandle:
    """The one parent-side shard session, over any frame transport.

    Everything a remote shard's parent must get right lives here, once:
    every ``submit`` is stamped with the monotonic seq (``sent_seq``), every
    command is encoded with the transport's frame options and delivered,
    ``call`` round trips are timed into ``repro_backend_call_seconds``,
    replies are awaited under ``io_timeout`` — a missed deadline is counted
    and **poisons** the handle, because the late reply would otherwise be
    read as the next call's answer — and each reply is decoded exactly once,
    its applied-seq watermark kept as ``acked_seq``.  An error reply
    surfaces as :class:`BackendError` chained to the remote exception.

    Subclasses are byte transports: they move frames over a *channel*
    (``_send`` / ``_recv`` / ``_close_channel``), describe the peer
    (``_peer``) and own whatever the channel needs to exist (a worker
    process, a ring, a TLS context).  A handle is built with its channel
    open and nothing sent; a fresh launch is :meth:`send_launch` then
    :meth:`await_ready`, two halves the backend runs across every shard at
    once.  :meth:`_handshake` runs the same two halves back to back on a
    channel that is not yet the live one, so a make-before-break handoff
    can fail without touching the session.  A
    transport that can heal a lost connection hooks :meth:`_deliver` and
    :meth:`_await_reply` (the socket backend's replay log); the default is
    that a lost peer fails the call.
    """

    #: Extra ``encode_command`` keywords for this transport's frames
    #: (``compress`` on sockets, ``array_sink`` on shared-memory rings).
    _frame_options: Dict[str, Any] = {}

    def __init__(self, index: int, io_timeout: Optional[float]) -> None:
        self.index = index
        self.io_timeout = io_timeout
        self.channel: Any = None
        #: Seq stamped on the last ``submit`` / applied-seq watermark of the
        #: last reply.  Equal after a barrier; both survive a relaunch.
        self.sent_seq = 0
        self.acked_seq = 0
        self._call_started: Optional[float] = None
        self._broken: Optional[str] = None

    # ------------------------------------------------------------ transport
    def _send(self, channel: Any, frame: bytes) -> None:
        """Ship one frame; ``OSError`` when the peer is gone."""
        raise NotImplementedError

    def _recv(self, channel: Any, timeout: Optional[float]) -> bytes:
        """The next frame; ``TimeoutError`` after ``timeout`` seconds of
        silence, ``EOFError``/``OSError`` when the peer is gone."""
        raise NotImplementedError

    def _close_channel(self, channel: Any) -> None:
        raise NotImplementedError

    def _peer(self) -> str:
        """The live channel's peer, for error messages."""
        raise NotImplementedError

    def _launch_hint(self, exc: BaseException) -> str:
        """Transport-specific advice appended to a broken-handshake error."""
        return ""

    # -------------------------------------------------------------- session
    def _launch_deadline(self) -> Tuple[Optional[float], str]:
        """``(seconds, option name)`` a launch's ``ready`` must arrive in."""
        return self.io_timeout, "io_timeout"

    def send_launch(self, builder: Callable[[], Any]) -> None:
        """First half of a fresh launch: ship ``builder`` on the live channel."""
        self._send_launch(self.channel, builder)

    def await_ready(self) -> None:
        """Second half of a fresh launch: the live channel's ``ready``."""
        self._await_ready(self.channel)

    def _handshake(self, channel: Any, builder: Callable[[], Any],
                   resume_seq: int, peer: Optional[str] = None) -> None:
        """Run ``launch → ready`` on ``channel`` (not yet the live one).

        ``resume_seq`` primes the worker's applied-seq counter; ``peer``
        names the far end when it is not the live channel's.  Raises
        :class:`BackendError`; the caller, which opened ``channel``, closes
        it.
        """
        self._send_launch(channel, builder, resume_seq, peer)
        self._await_ready(channel, peer)

    def _send_launch(self, channel: Any, builder: Callable[[], Any],
                     resume_seq: Optional[int] = None,
                     peer: Optional[str] = None) -> None:
        with self._launch_step(peer):
            self._send(channel, encode_launch(
                builder, resume_seq=resume_seq, trace=current_trace_id(),
                **self._frame_options))

    def _await_ready(self, channel: Any, peer: Optional[str] = None) -> None:
        with self._launch_step(peer):
            status, value, _acked = unpack_reply(
                self._recv(channel, self._launch_deadline()[0]))
        if status != "ready":
            raise self._launch_error(repr(value), peer)

    @contextlib.contextmanager
    def _launch_step(self, peer: Optional[str]) -> Iterator[None]:
        """Fold one handshake half's transport failures into a
        :class:`BackendError` naming the shard."""
        try:
            yield
        except TimeoutError as exc:
            timeout, option = self._launch_deadline()
            raise self._launch_error(
                f"no launch reply within the {timeout:g}s {option} "
                f"(hung worker?)", peer) from exc
        except (EOFError, OSError, WireDecodeError) as exc:
            raise self._launch_error(
                f"the launch handshake broke off: {exc!r}"
                f"{self._launch_hint(exc)}", peer) from exc

    def _launch_error(self, failure: str, peer: Optional[str]) -> BackendError:
        return BackendError(f"shard {self.index} failed to start on "
                            f"{peer or self._peer()}: {failure}")

    def _check_usable(self) -> None:
        if self._broken is not None:
            raise BackendError(f"shard {self.index} is unusable: {self._broken}")

    def _poison(self, reason: str,
                cause: Optional[BaseException] = None) -> NoReturn:
        """Make the handle unusable and raise why.

        The channel stays open: only the reply direction is out of step,
        so :meth:`stop` can still tell the worker to end.
        """
        self._broken = reason
        self._call_started = None
        raise BackendError(f"shard {self.index}: {reason}") from cause

    def send_command(self, op: str, fn: Optional[Callable], args: tuple) -> None:
        self._check_usable()
        if op == "submit":
            self.sent_seq += 1
            frame = encode_submit(fn, args, seq=self.sent_seq,
                                  trace=current_trace_id(),
                                  **self._frame_options)
        else:
            if op == "call" and REGISTRY.enabled:
                self._call_started = perf_counter()
            frame = encode_command(op, fn, args, trace=current_trace_id(),
                                   **self._frame_options)
        self._deliver(op, frame)

    def _deliver(self, op: str, frame: bytes) -> None:
        try:
            self._send(self.channel, frame)
        except OSError as exc:
            raise BackendError(f"{self._peer()} is gone: {exc}") from exc

    def _await_reply(self) -> Tuple[str, Any, Optional[int]]:
        """The live channel's next reply, decoded; ``TimeoutError`` passes."""
        try:
            data = self._recv(self.channel, self.io_timeout)
        except TimeoutError:
            raise
        except (EOFError, OSError) as exc:
            raise BackendError(f"{self._peer()} died: {exc!r}") from exc
        return _decode_reply_as_backend_errors(data)

    def recv_reply(self) -> Tuple[str, Any]:
        self._check_usable()
        try:
            status, value, acked = self._await_reply()
        except TimeoutError as exc:
            # No blind retry: the worker would hang identically, and its
            # late reply must never be read as a later call's answer.
            _DEADLINE_EXPIRIES.inc(shard=self.index)
            self._poison(
                f"no reply from {self._peer()} within the "
                f"{self.io_timeout:g}s io_timeout (hung or overloaded worker; "
                f"raise io_timeout in backend_options if the shard work is "
                f"legitimately this slow)", exc)
        if acked is not None:
            self.acked_seq = acked
        if self._call_started is not None:
            _CALL_SECONDS.observe(perf_counter() - self._call_started,
                                  shard=self.index)
            self._call_started = None
        return status, value

    def finish_call(self) -> Any:
        status, value = self.recv_reply()
        if status == "error":
            raise BackendError(f"shard worker failed: {value!r}") from value
        return value

    def _hang_up(self, channel: Any) -> None:
        """Tell the worker on ``channel`` to stop and release the channel."""
        self._send_stop(channel)
        self._close_channel(channel)

    def _send_stop(self, channel: Any) -> None:
        """Send the stop frame, if the worker can still be told (a poisoned
        handle's may; a dead one's no longer matters)."""
        try:
            self._send(channel, encode_command("stop", None, (),
                                               **self._frame_options))
        except OSError:
            pass

    def stop(self) -> None:
        """End the session."""
        self._hang_up(self.channel)

    def abort_launch(self) -> None:
        """End a session whose backend launch failed, on this shard or
        another; it returns once the worker is gone."""
        self.stop()


def drain_call_all(shards: Sequence[RemoteShardHandle], fn: Callable,
                   args: tuple, *, collect_errors: bool = False) -> Any:
    """Fan a ``call`` out to every shard, then collect every reply.

    The command goes to all shards before any reply is read, so independent
    workers execute concurrently; and EVERY reply owed (one per successful
    send — the send phase is guarded too) is drained before an error is
    raised.  An unread reply would desynchronize that shard's command/reply
    stream and make every later call return the previous round's answer
    (the PR 4 regression this encodes).

    With ``collect_errors=True`` nothing is raised: the return value is
    ``(results, errors)`` with ``results[shard] is None`` and
    ``errors[shard]`` set for each failed shard — the graceful-degradation
    path behind ``call_all_partial``.
    """
    first_error: Optional[BackendError] = None
    errors: Dict[int, BackendError] = {}
    awaiting: List[Optional[RemoteShardHandle]] = []
    for index, handle in enumerate(shards):
        try:
            handle.send_command("call", fn, args)
            awaiting.append(handle)
        except BackendError as exc:
            if first_error is None:
                first_error = exc
            errors[index] = exc
            awaiting.append(None)
    results: List[Any] = []
    for index, handle in enumerate(awaiting):
        if handle is None:
            results.append(None)
            continue
        try:
            results.append(handle.finish_call())
        except BackendError as exc:
            if first_error is None:
                first_error = exc
            errors[index] = exc
            results.append(None)
    if collect_errors:
        return results, errors
    if first_error is not None:
        raise first_error
    return results


class RemoteBackend(EngineBackend):
    """Shards behind :class:`RemoteShardHandle` sessions: one launch fan-out,
    one call fan-out.  Subclasses say how one shard's channel is opened."""

    @abc.abstractmethod
    def _open_shard(self, index: int,
                    builder: Callable[[], Any]) -> RemoteShardHandle:
        """Open shard ``index``'s channel: its worker started or connected,
        nothing sent on it yet."""

    def _launch(self, builders: Sequence[Callable[[], Any]]) -> None:
        """Start every shard concurrently, in three phases: open every
        channel, send every launch frame, then await every ``ready``.

        Workers build their trackers side by side, so a launch costs about
        one shard's start, not the sum.  A failure in any phase ends every
        opened shard (:meth:`RemoteShardHandle.abort_launch`: its stop
        frame, then the worker reaped or its hang-up awaited) and raises
        the first failure in shard order, which names its shard.
        """
        self._shards: List[Any] = []
        try:
            for index, builder in enumerate(builders):
                self._shards.append(self._open_shard(index, builder))
            for shard, builder in zip(self._shards, builders):
                shard.send_launch(builder)
            for shard in self._shards:
                shard.await_ready()
        except BaseException:
            shards, self._shards = self._shards, []
            for shard in shards:
                shard.abort_launch()
            self._num_shards = 0
            raise

    def submit(self, shard: int, fn: Callable, *args: Any) -> None:
        self._shards[self._check_shard(shard)].send_command("submit", fn, args)

    def call(self, shard: int, fn: Callable, *args: Any) -> Any:
        handle = self._shards[self._check_shard(shard)]
        handle.send_command("call", fn, args)
        return handle.finish_call()

    def call_all(self, fn: Callable, *args: Any,
                 shards: Optional[Sequence[int]] = None) -> List[Any]:
        return drain_call_all(
            [self._shards[shard] for shard in self._fanout(shards)], fn, args)

    def call_all_partial(self, fn: Callable, *args: Any
                         ) -> Tuple[List[Any], Dict[int, BackendError]]:
        return drain_call_all(self._shards, fn, args, collect_errors=True)

    def close(self) -> None:
        for shard in getattr(self, "_shards", []):
            shard.stop()
        self._shards = []
        self._num_shards = 0


class _ProcessShard(RemoteShardHandle):
    """One persistent worker process: a duplex pipe and the process to reap.

    ``target`` / ``target_args`` let a subclass run a different worker loop
    on the child end of the pipe (the ``shm`` backend's ring reader).
    """

    def __init__(self, index: int, context: Any,
                 io_timeout: Optional[float] = None,
                 shutdown_timeout: float = DEFAULT_SHUTDOWN_TIMEOUT,
                 target: Callable[..., None] = _process_worker_main,
                 target_args: tuple = ()):
        super().__init__(index, io_timeout)
        self._shutdown_timeout = shutdown_timeout
        self.channel, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=target, args=(child_conn, *target_args),
            name=f"repro-shard-{index}", daemon=True,
        )
        # Not yet registered with the backend: a start that fails must close
        # its own pipe.  Once started, the backend's launch hangs up and
        # reaps the worker on any failure (a fork-started worker holds a
        # copy of the parent's pipe end, so only the stop frame ends it).
        try:
            self.process.start()
        except BaseException:
            self.channel.close()
            raise
        finally:
            child_conn.close()

    def _send(self, channel: Any, frame: bytes) -> None:
        channel.send_bytes(frame)

    def _recv(self, channel: Any, timeout: Optional[float]) -> bytes:
        if timeout is not None and not channel.poll(timeout):
            raise TimeoutError
        return channel.recv_bytes()

    def _close_channel(self, channel: Any) -> None:
        channel.close()

    def _peer(self) -> str:
        return (f"shard worker {self.process.name} (pid={self.process.pid}, "
                f"exitcode={self.process.exitcode})")

    def stop(self) -> None:
        super().stop()
        self._reap()

    def _reap(self) -> None:
        """Wait for the worker to exit, escalating join → terminate → kill.

        A worker stuck in an uninterruptible state must never be silently
        abandoned: each escalation step warns with the shard's name so the
        operator knows which worker misbehaved.
        """
        self.process.join(timeout=self._shutdown_timeout)
        if self.process.is_alive():
            warnings.warn(
                f"shard worker {self.process.name} (pid={self.process.pid}) "
                f"did not exit within {self._shutdown_timeout:g}s; "
                "escalating to terminate()",
                RuntimeWarning, stacklevel=3,
            )
            self.process.terminate()
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            warnings.warn(
                f"shard worker {self.process.name} (pid={self.process.pid}) "
                "survived terminate(); escalating to kill()",
                RuntimeWarning, stacklevel=3,
            )
            self.process.kill()
            self.process.join(timeout=5.0)


class ProcessBackend(RemoteBackend):
    """One persistent worker process per shard.

    The parent ships columnar batch chunks down a duplex pipe as
    :mod:`repro.wire` frames (NumPy element/weight/row arrays travel as
    dtype/shape/contiguous bytes); the OS pipe buffer provides natural
    backpressure when a worker falls behind.  Workers are started with
    ``fork`` where available (shares the imported library; a forked worker
    reaches its loop about 2 ms after the fork begins on a 2-vCPU host) and
    ``spawn`` otherwise (a fresh interpreter that imports the library
    itself).  Shards start concurrently: every worker is started, then
    every launch frame sent, then every ``ready`` awaited, so a launch
    costs about one shard's start plus its build, not the sum over shards.
    ``io_timeout`` (seconds, default none) is the deadline on every reply,
    the launch's ``ready`` included; a shard that misses it is poisoned.
    """

    name = "process"

    # ``RemoteBackend``'s methods unchanged, but bound on this class too: the
    # benchmark harness patches them through ``ProcessBackend``'s own dict.
    submit = RemoteBackend.submit
    call_all = RemoteBackend.call_all

    def __init__(self, start_method: Optional[str] = None,
                 io_timeout: Optional[float] = None,
                 shutdown_timeout: float = DEFAULT_SHUTDOWN_TIMEOUT):
        super().__init__()
        if start_method is None:
            start_method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                            else "spawn")
        self._context = multiprocessing.get_context(start_method)
        self._io_timeout = None if io_timeout is None else float(io_timeout)
        self._shutdown_timeout = float(shutdown_timeout)

    def _open_shard(self, index: int,
                    builder: Callable[[], Any]) -> _ProcessShard:
        return _ProcessShard(index, self._context,
                             io_timeout=self._io_timeout,
                             shutdown_timeout=self._shutdown_timeout)


# ----------------------------------------------------------------- registry
@dataclass(frozen=True)
class BackendSpec:
    """One registered engine backend: name, class and a one-line summary."""

    name: str
    backend_class: type
    summary: str

    def build(self, **kwargs: Any) -> EngineBackend:
        """Construct an (unlaunched) backend instance."""
        return self.backend_class(**kwargs)


_BACKENDS: Dict[str, BackendSpec] = {}


def _register(spec: BackendSpec) -> None:
    key = spec.name.lower()
    if key in _BACKENDS:
        raise ValueError(f"duplicate backend name {spec.name!r}")
    _BACKENDS[key] = spec


for _spec in (
    BackendSpec(
        name="serial", backend_class=SerialBackend,
        summary="shards in the calling thread (reference semantics)",
    ),
    BackendSpec(
        name="thread", backend_class=ThreadBackend,
        summary="one worker thread per shard (overlaps BLAS-heavy work)",
    ),
    BackendSpec(
        name="process", backend_class=ProcessBackend,
        summary="persistent worker process per shard (multi-core scaling)",
    ),
):
    _register(_spec)


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(spec.name for spec in _BACKENDS.values())


def get_backend_spec(name: str) -> BackendSpec:
    """Resolve a backend name (case-insensitive) to its :class:`BackendSpec`."""
    if not isinstance(name, str):
        raise TypeError(f"backend name must be a string, got {type(name).__name__}")
    spec = _BACKENDS.get(name.strip().lower())
    if spec is None:
        raise ValueError(
            f"unknown engine backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return spec


def create_backend(name: str, **kwargs: Any) -> EngineBackend:
    """Build an (unlaunched) backend instance from a registered name."""
    return get_backend_spec(name).build(**kwargs)


def backend_registry_rows() -> List[Dict[str, str]]:
    """The backend registry as table rows (for the CLI and the README)."""
    return [
        {"backend": spec.name, "class": spec.backend_class.__name__,
         "summary": spec.summary}
        for spec in (get_backend_spec(name) for name in available_backends())
    ]
