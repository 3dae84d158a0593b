"""The multi-host ``socket`` engine backend and its worker server.

This is the RPC backend the roadmap called for: shard trackers live in
worker processes reachable over TCP — on the same machine or any other —
and the parent drives them with the exact worker protocol the process
backend speaks over pipes (:mod:`repro.cluster.worker_protocol`), with each
wire frame length-prefixed on the stream (:func:`repro.wire.send_frame`).
Because every command and reply is a :mod:`repro.wire` frame, nothing
pickled ever crosses the connection, and worker and parent do not even need
the same Python version.

Topology: start one or more workers (each can host any number of shards —
one serving thread per accepted connection)::

    repro-experiments worker --listen 0.0.0.0:7071

then point a sharded session at them::

    cluster = ShardedTracker.create(
        "hh/P2", shards=4, backend="socket", num_sites=20, epsilon=0.01,
        backend_options={"addresses": "host-a:7071,host-b:7071"},
    )

Shard ``i`` connects to ``addresses[i % len(addresses)]``, so two addresses
and four shards put two shard sessions on each worker.  Serial and socket
execution are bit-identical for every registered protocol spec (answers,
message accounting, seeded draws) — the equivalence suite pins this on a
localhost loop.

**Fault tolerance.**  The session discipline — seq-stamped submits, the
``io_timeout`` reply deadline that poisons the shard on expiry, one decode
per reply — is :class:`~repro.cluster.backends.RemoteShardHandle`'s, shared
with the pipe backends.  This module adds what TCP needs: every socket I/O,
sends included, runs under a deadline (``io_timeout`` for established
sessions, ``connect_timeout`` for connect *and* the launch handshake), and
each shard handle keeps a bounded replay log of its submit frames (workers
drop duplicate seqs), plus a periodic state snapshot once the log exceeds
``replay_log_bytes`` — a transient worker death or TCP reset is healed by
reconnecting (to the same address, or a standby from ``spare_addresses``),
restoring the snapshot, and replaying the log bit-identically.  Deadline
expiry is *not* retried: reconnecting to a hung worker would just hang
again.

**Elastic membership.**  :meth:`SocketBackend.add_worker` /
:meth:`~SocketBackend.remove_worker` / :meth:`~SocketBackend.move_shard`
move shard sessions between live workers mid-stream via the same
state-frame handoff (snapshot on the old worker, restore on the new one,
then cut over), without touching the site→shard map — only the
shard→address placement changes, so in-flight chunks keep routing
consistently.  The placement map is versioned
(:attr:`~SocketBackend.placement_version`).

:class:`WorkerServer` is the embeddable form of ``repro worker``: tests and
notebooks can host workers in-process (``WorkerServer().start()`` binds an
ephemeral localhost port) without shelling out.  It tracks its live shard
sessions, so chaos tests can sever all of them at once
(:meth:`WorkerServer.kill_sessions`) and operators can drain a worker
before retiring it (:meth:`WorkerServer.drain`).
"""

from __future__ import annotations

import hmac
import os
import socket
import ssl
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..wire import (
    WireDecodeError,
    pack_frame,
    recv_frame,
    send_frame,
    unpack_frame,
)
from ..obs.logging import get_logger
from ..obs.metrics import REGISTRY
from .backends import (
    BackendError,
    BackendSpec,
    RemoteBackend,
    RemoteShardHandle,
    _register,
)
from .sharded_tracker import _restore_shard, _shard_checkpoint
from .worker_protocol import (
    WorkerSession,
    encode_reply,
    unpack_reply,
)

__all__ = [
    "AUTH_CHALLENGE_KIND",
    "AUTH_RESPONSE_KIND",
    "DEFAULT_IO_TIMEOUT",
    "DEFAULT_REPLAY_LOG_BYTES",
    "SocketBackend",
    "WorkerServer",
    "client_ssl_context",
    "parse_address",
    "parse_address_list",
    "server_ssl_context",
]

AddressLike = Union[str, Tuple[str, int]]

#: Default seconds a shard session may go silent (send or reply) before the
#: call fails with a per-shard diagnosis.  Generous on purpose: a query
#: against a large shard legitimately takes seconds, never minutes.
DEFAULT_IO_TIMEOUT = 300.0

#: Default replay-log budget per shard.  When the log of unacknowledged
#: submit frames outgrows this, the parent snapshots the shard's state
#: (one state-frame call) and trims the log, so recovery replays a bounded
#: tail instead of the whole stream.
DEFAULT_REPLAY_LOG_BYTES = 1 << 24

#: Frame kinds of the HMAC challenge-response launch handshake.  When a
#: worker runs with ``--auth-token`` it sends a challenge (random nonce)
#: immediately after accepting (and TLS-wrapping) a connection; the parent
#: must answer with ``HMAC-SHA256(token, nonce)`` before anything else is
#: served.  Reconnect/replay recovery goes through the same
#: ``_connect`` path, so a healed connection re-authenticates
#: before any replay frame is sent.
AUTH_CHALLENGE_KIND = "repro/worker-auth-challenge"
AUTH_RESPONSE_KIND = "repro/worker-auth-response"

_AUTH_NONCE_BYTES = 32

#: Seconds a worker allows one accepted connection to finish its TLS and/or
#: auth handshake.  Bounded so a port-scanner or a plaintext client hitting
#: a TLS worker occupies a serving thread briefly, not forever.
DEFAULT_HANDSHAKE_TIMEOUT = 10.0


def _auth_mac(token: str, nonce: bytes) -> bytes:
    return hmac.new(token.encode("utf-8"), nonce, "sha256").digest()


def server_ssl_context(certfile: str, keyfile: Optional[str] = None,
                       cafile: Optional[str] = None) -> ssl.SSLContext:
    """A worker-side TLS context: server cert + optional client-cert check.

    ``cafile`` switches on mutual TLS — connections must then present a
    client certificate signed by that CA (``CERT_REQUIRED``).
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certfile, keyfile)
    if cafile:
        context.load_verify_locations(cafile=cafile)
        context.verify_mode = ssl.CERT_REQUIRED
    return context


def client_ssl_context(cafile: Optional[str] = None,
                       certfile: Optional[str] = None,
                       keyfile: Optional[str] = None) -> ssl.SSLContext:
    """A parent-side TLS context trusting ``cafile`` (hostname-checked).

    ``certfile``/``keyfile`` add a client certificate for workers that
    demand mutual TLS (``--tls-ca`` on the worker).
    """
    context = ssl.create_default_context(cafile=cafile)
    if certfile:
        context.load_cert_chain(certfile, keyfile)
    return context


def parse_address(address: AddressLike) -> Tuple[str, int]:
    """Parse ``"host:port"`` (or pass through a ``(host, port)`` pair)."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    text = str(address).strip()
    host, separator, port = text.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"worker address must look like HOST:PORT, got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(
            f"worker address must look like HOST:PORT, got {text!r}"
        ) from exc


def parse_address_list(addresses: Union[AddressLike, Sequence[AddressLike]]
                       ) -> List[Tuple[str, int]]:
    """Parse one address, a comma-separated string, or a sequence of either."""
    if isinstance(addresses, str):
        parts: Sequence[AddressLike] = [
            part for part in addresses.split(",") if part.strip()
        ]
    elif isinstance(addresses, tuple) and len(addresses) == 2 \
            and isinstance(addresses[1], int):
        parts = [addresses]
    else:
        parts = list(addresses)
    parsed = [parse_address(part) for part in parts]
    if not parsed:
        raise ValueError("need at least one worker address")
    return parsed


def _addr(address: Tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


_LOG = get_logger("repro.cluster")

#: Fault-tolerance telemetry, labelled by shard index.  Recovery events
#: are rare by construction, so these counters sit on cold paths.
_RECONNECTS = REGISTRY.counter(
    "repro_backend_reconnects_total",
    "Successful shard connection recoveries (incl. failover/evacuate)",
    labels=("shard",))
_REPLAY_FRAMES = REGISTRY.counter(
    "repro_backend_replay_frames_total",
    "Logged submit frames replayed to a relaunched worker", labels=("shard",))
_REPLAY_BYTES = REGISTRY.counter(
    "repro_backend_replayed_bytes_total",
    "Bytes of submit frames replayed to a relaunched worker",
    labels=("shard",))
_SNAPSHOT_TRIMS = REGISTRY.counter(
    "repro_backend_snapshot_trims_total",
    "Replay-log snapshot-and-trim cycles", labels=("shard",))
_HANDOFFS = REGISTRY.counter(
    "repro_backend_handoffs_total",
    "Live shard handoffs (relocate/evacuate) to another worker",
    labels=("shard",))


@dataclass
class _SocketOptions:
    """The :class:`SocketBackend` options every shard session reads —
    normalised once, shared by reference (``remove_worker`` prunes
    ``spares`` for all shards at once)."""

    connect_timeout: float
    compress: bool
    io_timeout: Optional[float]
    spares: List[Tuple[str, int]]
    reconnect_attempts: int
    reconnect_backoff: float
    replay_log_bytes: int
    ssl_context: Optional[ssl.SSLContext]
    auth_token: Optional[str]


class _SocketShard(RemoteShardHandle):
    """Parent-side handle of one shard session on a remote worker.

    On top of the shared session it is a TCP (+TLS/auth) byte transport and
    owns the shard's fault-tolerance state: the bounded replay log of
    submit frames, the latest ``(seq, state-frame)`` snapshot, and the
    in-flight call frame (re-sent after a reconnect — calls are read-only
    by the backend contract, so re-executing one is safe).  A deadline
    expiry poisons the handle; connection loss and corrupt replies trigger
    bounded recovery instead.
    """

    def __init__(self, index: int, address: Tuple[str, int],
                 builder: Callable[[], Any], options: _SocketOptions):
        super().__init__(index, options.io_timeout)
        self.address = address
        self._options = options
        self._frame_options = {"compress": options.compress}
        self._builder = builder
        self._log: List[Tuple[int, bytes]] = []
        self._log_bytes = 0
        self._snapshot: Optional[Tuple[int, bytes]] = None
        self._inflight: Optional[bytes] = None
        self.recoveries = 0
        # The initial launch is deliberately fail-fast: an unreachable or
        # stalling worker at create() time is a configuration error the
        # caller should see immediately, not something to retry around.
        # Connected (and TLS-wrapped and authenticated) here; the backend
        # then sends the launch and awaits ``ready`` for all shards at once.
        self.channel = self._connect(address)

    # ------------------------------------------------------------ transport
    def _send(self, channel: socket.socket, frame: bytes) -> None:
        send_frame(channel, frame)

    def _recv(self, channel: socket.socket, timeout: Optional[float]) -> bytes:
        # The socket carries its deadline itself, sends included:
        # ``_connect`` arms ``connect_timeout`` through the handshake and
        # ``await_ready`` / ``_open_channel`` arm ``io_timeout`` after it.
        return recv_frame(channel)

    def _close_channel(self, channel: socket.socket) -> None:
        try:
            channel.close()
        except OSError:  # pragma: no cover
            pass

    def _peer(self) -> str:
        return f"worker {_addr(self.address)}"

    def _launch_hint(self, exc: BaseException) -> str:
        if AUTH_CHALLENGE_KIND in str(exc):
            return (" — the worker requires authentication but this backend "
                    "has no auth_token; pass backend_options={'auth_token': "
                    "...} matching the worker's --auth-token")
        if self._options.ssl_context is None:
            return (" — if the worker listens with --tls-cert, this backend "
                    "must enable TLS too (tls_ca in backend_options)")
        return ""

    def _poison(self, reason: str,
                cause: Optional[BaseException] = None) -> NoReturn:
        # Hang up now: a peer that is not draining would stall stop()'s
        # send for another io_timeout.
        self._close_channel(self.channel)
        super()._poison(reason, cause)

    # ----------------------------------------------------------- connection
    def _launch_deadline(self) -> Tuple[Optional[float], str]:
        return self._options.connect_timeout, "connect_timeout"

    def await_ready(self) -> None:
        super().await_ready()
        self.channel.settimeout(self.io_timeout)

    def abort_launch(self) -> None:
        """Hang up, then wait (within ``connect_timeout``) for the worker to
        close its end: a failed launch returns only once no worker still
        holds one of its sessions, even one it had not yet accepted."""
        self._send_stop(self.channel)
        try:
            self.channel.settimeout(self._options.connect_timeout)
            while self.channel.recv(1 << 16):
                pass  # an unread ``ready``, then the worker's EOF
        except OSError:
            pass
        self._close_channel(self.channel)

    def _open_channel(self, address: Tuple[str, int], builder: Any,
                      resume_seq: int) -> socket.socket:
        """Connect to ``address`` and relaunch the shard there.

        A recovery/handoff relaunch: ``resume_seq`` primes the worker's
        applied-seq counter.  It runs the same two handshake halves as a
        fresh launch, back to back; because it goes through
        :meth:`_connect`, a healed connection re-runs TLS and auth before
        any replay frame.  Any failure closes the socket (the session is
        not yet registered anywhere else) and raises :class:`BackendError`.
        """
        sock = self._connect(address)
        try:
            self._handshake(sock, builder, int(resume_seq),
                            f"worker {_addr(address)}")
        except BaseException:
            sock.close()
            raise
        sock.settimeout(self.io_timeout)
        return sock

    def _connect(self, address: Tuple[str, int]) -> socket.socket:
        """Open a channel to ``address``: TCP connect, TLS wrap, auth.

        The connect timeout is armed on the returned socket and stays armed
        through the launch handshake that follows: a worker that accepts and
        then never replies ``ready`` must fail ``create()`` within the
        deadline, not hang it forever.  Any failure closes the socket and
        raises :class:`BackendError`.
        """
        options = self._options
        peer = f"worker {_addr(address)}"
        try:
            sock = socket.create_connection(address,
                                            timeout=options.connect_timeout)
        except OSError as exc:
            raise BackendError(
                f"cannot reach {peer} for shard {self.index}: {exc}"
            ) from exc
        try:
            # Small frames should not wait for Nagle.
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - exotic socket families
                pass
            if options.ssl_context is not None:
                try:
                    sock = options.ssl_context.wrap_socket(
                        sock, server_hostname=address[0])
                except OSError as exc:
                    # SSLError subclasses OSError.  Covers an expired or
                    # untrusted certificate on either side, a mutual-TLS
                    # worker rejecting our client cert, and a plaintext
                    # worker answering the ClientHello with garbage.
                    raise BackendError(
                        f"TLS handshake with {peer} failed for shard "
                        f"{self.index}: {exc} (check the worker's "
                        f"--tls-cert/--tls-key/--tls-ca against this "
                        f"backend's tls_ca/tls_cert/tls_key options)"
                    ) from exc
            if options.auth_token is not None:
                self._authenticate(sock, peer)
        except BaseException:
            sock.close()
            raise
        return sock

    def _authenticate(self, sock: socket.socket, peer: str) -> None:
        """Answer the worker's HMAC challenge (parent side of the handshake)."""
        try:
            _kind, nonce = unpack_frame(recv_frame(sock),
                                        expected_kind=AUTH_CHALLENGE_KIND)
            send_frame(sock, pack_frame(
                AUTH_RESPONSE_KIND,
                _auth_mac(self._options.auth_token, bytes(nonce))))
        except TimeoutError as exc:
            raise BackendError(
                f"{peer} sent shard {self.index} no auth challenge within "
                f"the {self._options.connect_timeout:g}s connect_timeout — "
                f"an auth_token is configured here but the worker does not "
                f"appear to run with --auth-token (or the TLS settings "
                f"disagree: a --tls-cert worker needs tls_ca in "
                f"backend_options)"
            ) from exc
        except (EOFError, OSError) as exc:
            raise BackendError(
                f"{peer} dropped shard {self.index}'s connection during the "
                f"auth challenge: {exc}"
            ) from exc
        except WireDecodeError as exc:
            raise BackendError(
                f"{peer} sent shard {self.index} an unexpected frame instead "
                f"of an auth challenge (worker not running with "
                f"--auth-token?): {exc}"
            ) from exc

    # ------------------------------------------------------------- commands
    def _deliver(self, op: str, frame: bytes) -> None:
        if op == "submit":
            self._log.append((self.sent_seq, frame))
            self._log_bytes += len(frame)
            self._send_resilient(frame)
            if self._log_bytes > self._options.replay_log_bytes:
                self._sync_snapshot()
        else:  # a call: re-sent after a reconnect until its reply is read
            self._inflight = frame
            self._send_resilient(frame)

    def _send_resilient(self, frame: bytes) -> None:
        """Ship one logged/in-flight frame, recovering the connection once.

        The frame is already recorded (replay log for submits, ``_inflight``
        for calls) *before* this is called, so a successful ``_recover``
        re-delivers it via replay — nothing further to do here.
        """
        try:
            self._send(self.channel, frame)
        except TimeoutError as exc:
            # The peer stopped draining: its receive path is wedged, so a
            # reconnect would wedge identically.  Deadline discipline says
            # fail loudly now.
            self._poison(
                f"send to {self._peer()} stalled past the "
                f"{self.io_timeout:g}s io_timeout (worker not draining)", exc)
        except OSError as exc:
            self._recover(f"connection lost mid-send: {exc}")

    def _await_reply(self) -> Tuple[str, Any, Optional[int]]:
        failures = 0
        while True:
            try:
                reply = unpack_reply(self._recv(self.channel, self.io_timeout))
            except TimeoutError:
                raise
            except (EOFError, OSError, WireDecodeError) as exc:
                # A torn or corrupted reply means the stream framing can no
                # longer be trusted, so it is treated like a connection
                # loss — reconnect, restore, replay, re-ask.
                cause = ("corrupt reply frame"
                         if isinstance(exc, WireDecodeError)
                         else "connection lost mid-call")
                failures += 1
                if failures > self._options.reconnect_attempts:
                    self._poison(f"{cause} and kept failing: {exc}", exc)
                self._recover(f"{cause}: {exc}")
                continue
            self._inflight = None
            return reply

    # ------------------------------------------------------------- recovery
    def _recover(self, cause: str) -> None:
        """Heal a lost connection: reconnect, restore state, replay the log.

        Candidates are the shard's current address first, then the spare
        standby list; each gets ``reconnect_attempts`` rounds with a
        deterministic linear backoff.  On success the shard's state is
        bit-identical to an uninterrupted run (snapshot restore + idempotent
        sequenced replay); on exhaustion the handle is poisoned.
        """
        self._close_channel(self.channel)
        options = self._options
        candidates = [self.address] + [
            spare for spare in options.spares if spare != self.address
        ]
        last_error: Optional[BaseException] = None
        for attempt in range(options.reconnect_attempts):
            for candidate in candidates:
                if attempt:
                    time.sleep(options.reconnect_backoff * attempt)
                try:
                    self._relaunch_on(candidate)
                except BackendError as exc:
                    last_error = exc
                    continue
                self.recoveries += 1
                _RECONNECTS.inc(shard=self.index)
                _LOG.info("shard connection recovered",
                          extra={"shard": self.index, "cause": cause,
                                 "address": _addr(candidate)})
                return
        self._poison(
            f"{cause}; recovery exhausted {options.reconnect_attempts} "
            f"attempt(s) across {len(candidates)} worker(s) "
            f"({', '.join(_addr(c) for c in candidates)})", last_error)

    def _restore_builder(self) -> Tuple[int, Any]:
        """``(resume_seq, builder)`` that rebuilds the shard elsewhere: the
        last snapshot, or the original builder when none was taken."""
        if self._snapshot is None:
            return 0, self._builder
        snap_seq, frame = self._snapshot
        return snap_seq, partial(_restore_shard, frame, self.index)

    def _relaunch_on(self, address: Tuple[str, int]) -> None:
        """Start a fresh session on ``address`` and bring it up to date.

        The new worker is primed with the snapshot's sequence number; then
        every logged submit frame is replayed byte-for-byte — the worker
        drops any it already applied — and the in-flight call frame, if
        any, is re-sent so the pending ``recv_reply`` finds its answer.
        """
        snap_seq, builder = self._restore_builder()
        sock = self._open_channel(address, builder, snap_seq)
        replay = [frame for seq, frame in self._log if seq > snap_seq]
        try:
            for frame in replay:
                send_frame(sock, frame)
            if self._inflight is not None:
                send_frame(sock, self._inflight)
        except OSError as exc:
            sock.close()
            raise BackendError(
                f"worker {_addr(address)} dropped shard {self.index}'s "
                f"replay: {exc}"
            ) from exc
        if replay:
            _REPLAY_FRAMES.inc(len(replay), shard=self.index)
            _REPLAY_BYTES.inc(sum(map(len, replay)), shard=self.index)
        self.channel, self.address = sock, address

    def _sync_snapshot(self) -> None:
        """Snapshot the shard's state and trim the replay log.

        One round trip: a ``call`` of ``_shard_checkpoint``, sequenced
        after every logged submit (per-shard FIFO), so the returned frame
        reflects exactly the submits up to ``sent_seq``.  Note this call —
        like any call — surfaces a deferred submit error; with the default
        16 MiB log budget that only shifts *where* a failed submit is
        reported, never whether.
        """
        seq_at = self.sent_seq
        self.send_command("call", _shard_checkpoint, ())
        self._snapshot = (seq_at, self.finish_call())
        self._log = []
        self._log_bytes = 0
        _SNAPSHOT_TRIMS.inc(shard=self.index)

    # -------------------------------------------------------------- handoff
    def relocate(self, address: Tuple[str, int]) -> None:
        """Move this shard's live session to ``address`` (make-before-break).

        Snapshot through the current connection, launch the restored
        session on the *new* worker first, and only then stop the old one —
        a failed move leaves the shard running where it was.  The snapshot
        also resets the replay log (it is the freshest possible recovery
        point).
        """
        self._check_usable()
        self._sync_snapshot()
        snap_seq, builder = self._restore_builder()
        new_sock = self._open_channel(address, builder, snap_seq)
        old_sock = self.channel
        self.channel, self.address = new_sock, address
        _HANDOFFS.inc(shard=self.index)
        _LOG.info("shard relocated",
                  extra={"shard": self.index, "address": _addr(address)})
        self._hang_up(old_sock)

    def evacuate(self, address: Tuple[str, int]) -> None:
        """Move this shard to ``address`` even if its current worker is dead.

        Tries the graceful :meth:`relocate`; when the current worker cannot
        even be snapshotted, rebuilds the session on the target from the
        last snapshot (or the original builder) plus the replay log — the
        same bit-identical path crash recovery uses.
        """
        try:
            self.relocate(address)
            return
        except BackendError:
            pass
        self._close_channel(self.channel)
        self._broken = None
        self._relaunch_on(address)
        self.recoveries += 1
        _RECONNECTS.inc(shard=self.index)
        _HANDOFFS.inc(shard=self.index)
        _LOG.info("shard evacuated",
                  extra={"shard": self.index, "address": _addr(address)})


class SocketBackend(RemoteBackend):
    """Shards live in ``repro worker`` processes reached over TCP.

    Parameters
    ----------
    addresses:
        Worker endpoints: ``"host:port"``, a comma-separated string, or a
        sequence of addresses/pairs.  Shard ``i`` connects to address
        ``i % len(addresses)``.
    connect_timeout:
        Seconds to wait for each worker connection *and* its launch
        handshake at launch/handoff time.  At launch every shard connects
        first, then all launch frames go out and all ``ready`` replies are
        awaited, so the deadline applies per shard inside one fan-out.
    compress:
        Compress command frames (as checkpoints are) before they hit the
        network — the right trade when workers sit behind a real network
        link rather than loopback.  Workers decode compressed and plain
        frames alike, so mixed-version fleets need no coordination.
    io_timeout:
        Deadline (seconds) on every send/reply of an established shard
        session; ``None`` disables it.  Expiry fails the call with a
        per-shard diagnosis and poisons the shard — a hung worker is not
        retried (reconnecting to it would hang identically).
    spare_addresses:
        Standby workers recovery may fail over to when a shard's worker
        dies and its own address stays unreachable.
    reconnect_attempts / reconnect_backoff:
        Bounded-recovery knobs: rounds of reconnection per failure and the
        deterministic linear backoff (seconds) between rounds.
    replay_log_bytes:
        Per-shard budget for the replay log of submit frames; exceeding it
        triggers a state snapshot that trims the log.
    tls_ca / tls_cert / tls_key:
        Enable TLS to the workers: ``tls_ca`` is the CA bundle that must
        have signed the workers' ``--tls-cert`` (hostname-checked);
        ``tls_cert``/``tls_key`` add a client certificate for workers that
        demand mutual TLS (``--tls-ca``).  Alternatively pass a ready
        ``ssl_context`` (programmatic use; overrides the file options).
    auth_token:
        Shared secret for the worker's HMAC challenge-response launch
        handshake (``--auth-token`` on the worker).  Never sent on the
        wire — only an HMAC over the worker's one-time nonce is.
    """

    name = "socket"

    def __init__(self,
                 addresses: Union[AddressLike, Sequence[AddressLike], None] = None,
                 connect_timeout: float = 10.0,
                 compress: bool = False,
                 io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
                 spare_addresses: Union[AddressLike, Sequence[AddressLike],
                                        None] = None,
                 reconnect_attempts: int = 3,
                 reconnect_backoff: float = 0.2,
                 replay_log_bytes: int = DEFAULT_REPLAY_LOG_BYTES,
                 tls_ca: Optional[str] = None,
                 tls_cert: Optional[str] = None,
                 tls_key: Optional[str] = None,
                 ssl_context: Optional[ssl.SSLContext] = None,
                 auth_token: Optional[str] = None):
        super().__init__()
        if addresses is None:
            # The only registered backend with a required option; every
            # entry point that resolves backends by name (ShardedTracker,
            # ShardedTracker.load of a socket-saved checkpoint, bench)
            # must fail with instructions, not a TypeError.
            raise BackendError(
                "the socket backend needs worker addresses: pass "
                "backend_options={'addresses': 'host:port[,host:port...]'} "
                "(start workers with `repro-experiments worker --listen`), "
                "or choose another backend"
            )
        self._addresses = parse_address_list(addresses)
        if ssl_context is None and (tls_ca or tls_cert):
            ssl_context = client_ssl_context(cafile=tls_ca, certfile=tls_cert,
                                             keyfile=tls_key)
        self._options = _SocketOptions(
            connect_timeout=float(connect_timeout),
            compress=bool(compress),
            io_timeout=None if io_timeout is None else float(io_timeout),
            spares=(parse_address_list(spare_addresses)
                    if spare_addresses else []),
            reconnect_attempts=max(1, int(reconnect_attempts)),
            reconnect_backoff=float(reconnect_backoff),
            replay_log_bytes=int(replay_log_bytes),
            ssl_context=ssl_context,
            auth_token=auth_token,
        )
        self._placement_version = 0

    def _open_shard(self, index: int,
                    builder: Callable[[], Any]) -> _SocketShard:
        return _SocketShard(index,
                            self._addresses[index % len(self._addresses)],
                            builder, self._options)

    # -------------------------------------------------- elastic membership
    @property
    def placement_version(self) -> int:
        """Bumped whenever the shard→worker placement changes."""
        return self._placement_version

    def placement(self) -> List[Tuple[str, int]]:
        """Current shard→worker map: ``placement()[i]`` hosts shard ``i``."""
        return [shard.address for shard in self._shards]

    def move_shard(self, shard: int, address: AddressLike) -> None:
        """Relocate one live shard session to ``address`` (make-before-break)."""
        target = parse_address(address)
        self._shards[self._check_shard(shard)].relocate(target)
        self._placement_version += 1

    def add_worker(self, address: AddressLike) -> List[int]:
        """Grow the worker set and rebalance shards onto the new member.

        Shards move (live, via state handoff) from the most-loaded workers
        until the new worker hosts its fair share
        (``num_shards // num_workers``); ordering is deterministic.
        Returns the moved shard indices.
        """
        if not self._launched:
            raise BackendError("backend not launched")
        target = parse_address(address)
        if target not in self._addresses:
            self._addresses.append(target)
        fair = self._num_shards // len(self._addresses)
        moved: List[int] = []
        while sum(1 for s in self._shards if s.address == target) < fair:
            load: Dict[Tuple[str, int], int] = {}
            for s in self._shards:
                if s.address != target:
                    load[s.address] = load.get(s.address, 0) + 1
            if not load:
                break
            donor = max(sorted(load), key=lambda a: load[a])
            victim = [s for s in self._shards if s.address == donor][-1]
            victim.relocate(target)
            moved.append(victim.index)
        if moved:
            self._placement_version += 1
        return moved

    def remove_worker(self, address: AddressLike) -> List[int]:
        """Shrink the worker set, evacuating its shards to the remaining ones.

        Shards hosted on ``address`` move round-robin onto the surviving
        workers — live when the retiring worker still answers, rebuilt from
        snapshot+replay when it is already dead.  Removing the last worker
        is refused.  Returns the moved shard indices.
        """
        if not self._launched:
            raise BackendError("backend not launched")
        target = parse_address(address)
        remaining = [a for a in self._addresses if a != target]
        if not remaining:
            raise BackendError(
                "cannot remove the last worker from the socket backend; "
                "add_worker() a replacement first"
            )
        moved: List[int] = []
        for shard in self._shards:
            if shard.address == target:
                shard.evacuate(remaining[len(moved) % len(remaining)])
                moved.append(shard.index)
        self._addresses = remaining
        self._options.spares[:] = [a for a in self._options.spares
                                   if a != target]
        if moved:
            self._placement_version += 1
        return moved


# ------------------------------------------------------------ worker server
class _SocketFrameTransport:
    """recv/send callables for a WorkerSession over one accepted socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def recv(self) -> bytes:
        return recv_frame(self._sock)

    def send(self, frame: bytes) -> None:
        send_frame(self._sock, frame)


class WorkerServer:
    """Host shard sessions for :class:`SocketBackend` parents.

    Listens on ``host:port`` (port ``0`` binds an ephemeral port — read the
    resolved endpoint from :attr:`address`) and serves every accepted
    connection as one independent shard session on its own thread, so a
    single worker can host many shards.  Use :meth:`serve_forever` in a
    dedicated process (the ``repro worker`` CLI) or :meth:`start` /
    :meth:`stop` to embed a worker in the current process (tests, notebooks).

    Live session sockets are tracked: :attr:`active_sessions` counts them,
    :meth:`kill_sessions` severs them all abruptly (fault injection — the
    parent sees a TCP reset and heals via replay), and :meth:`drain` waits
    for them to finish naturally (graceful worker retirement).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 ssl_context: Optional[ssl.SSLContext] = None,
                 auth_token: Optional[str] = None,
                 handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT):
        self._listener = socket.create_server((host, port), backlog=16,
                                              reuse_port=False)
        self._host = host
        self._ssl_context = ssl_context
        self._auth_token = auth_token
        self._handshake_timeout = float(handshake_timeout)
        self._closed = threading.Event()
        self._threads: List[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions_served = 0
        self._session_lock = threading.Lock()
        self._session_socks: Set[socket.socket] = set()

    @property
    def uses_tls(self) -> bool:
        """True when accepted connections are TLS-wrapped."""
        return self._ssl_context is not None

    @property
    def requires_auth(self) -> bool:
        """True when connections must pass the HMAC launch handshake."""
        return self._auth_token is not None

    @property
    def address(self) -> Tuple[str, int]:
        """The resolved ``(host, port)`` endpoint the server listens on."""
        return self._listener.getsockname()[:2]

    @property
    def sessions_served(self) -> int:
        """Number of shard connections accepted so far."""
        return self._sessions_served

    @property
    def active_sessions(self) -> int:
        """Number of shard sessions currently connected."""
        with self._session_lock:
            return len(self._session_socks)

    def kill_sessions(self) -> int:
        """Abruptly sever every live shard session (fault injection).

        Each session socket is shut down and closed out from under its
        serving thread — the parent side experiences exactly what a worker
        crash or network partition looks like.  Returns the number of
        sessions killed.  The listener stays up, so parents reconnect to
        the same address and heal via snapshot + replay.
        """
        with self._session_lock:
            victims = list(self._session_socks)
        for sock in victims:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        return len(victims)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every live shard session has ended.

        Graceful-retirement helper (the ``repro worker --drain-grace`` path
        and ``remove_worker`` flows): returns True once no sessions remain,
        False if ``timeout`` seconds elapsed first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.active_sessions:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def serve_forever(self) -> None:
        """Accept and serve shard connections until :meth:`stop` is called."""
        while not self._closed.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            self._sessions_served += 1
            with self._session_lock:
                self._session_socks.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"repro-worker-session-{self._sessions_served}",
                daemon=True,
            )
            thread.start()
            # Prune finished sessions so a long-lived worker serving many
            # short-lived shard connections stays bounded.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def _secure_connection(self, conn: socket.socket) -> socket.socket:
        """Run the TLS wrap and/or HMAC handshake on one accepted socket.

        Both steps happen under ``handshake_timeout`` so a plaintext client
        hitting a TLS port, or a client that never answers the challenge,
        releases this serving thread quickly.  Auth failure sends the parent
        a worker-protocol error reply first — its pending launch then fails
        with a :class:`BackendError` naming the shard instead of a bare
        connection reset.  Raises on any failure; the caller closes up.
        """
        if self._ssl_context is None and self._auth_token is None:
            return conn
        conn.settimeout(self._handshake_timeout)
        if self._ssl_context is not None:
            conn = self._ssl_context.wrap_socket(conn, server_side=True)
        if self._auth_token is not None:
            nonce = os.urandom(_AUTH_NONCE_BYTES)
            send_frame(conn, pack_frame(AUTH_CHALLENGE_KIND, nonce))
            try:
                _kind, mac = unpack_frame(recv_frame(conn),
                                          expected_kind=AUTH_RESPONSE_KIND)
                authentic = isinstance(mac, (bytes, bytearray)) and \
                    hmac.compare_digest(bytes(mac),
                                        _auth_mac(self._auth_token, nonce))
            except WireDecodeError:
                # Includes an unauthenticated parent whose launch command
                # arrived where the auth response belonged.
                authentic = False
            if not authentic:
                try:
                    send_frame(conn, encode_reply("error", BackendError(
                        "worker authentication failed: wrong or missing "
                        "auth token")))
                except OSError:  # pragma: no cover - peer already gone
                    pass
                raise PermissionError("launch handshake auth failed")
        conn.settimeout(None)
        return conn

    def _serve_connection(self, conn: socket.socket) -> None:
        raw = conn
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover
            pass
        try:
            conn = self._secure_connection(conn)
        except Exception:
            # TLS/auth rejection: not a session, just clean up quietly.
            with self._session_lock:
                self._session_socks.discard(raw)
            for sock in {raw, conn}:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
            return
        if conn is not raw:
            # kill_sessions() must sever the socket actually in use; the
            # TLS wrap detached the raw socket's file descriptor into the
            # SSLSocket, so swap it in the live-session set.
            with self._session_lock:
                self._session_socks.discard(raw)
                self._session_socks.add(conn)
        transport = _SocketFrameTransport(conn)
        try:
            WorkerSession(transport.recv, transport.send).serve()
        finally:
            with self._session_lock:
                self._session_socks.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def start(self) -> "WorkerServer":
        """Serve in a background thread (embedded worker for tests/demos)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name="repro-worker-accept", daemon=True,
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting; running shard sessions end with their connections."""
        self._closed.set()
        # shutdown() before close(): close() alone does not wake a thread
        # blocked in accept() — the kernel socket survives via the in-flight
        # syscall and would accept one more connection from a reconnecting
        # parent that believes this worker is still alive.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not listening yet, or platform refuses shutdown here
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


_register(BackendSpec(
    name="socket", backend_class=SocketBackend,
    summary="shards on repro-worker processes over TCP (multi-host)",
))
