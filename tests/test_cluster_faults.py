"""Fault injection for the cluster layer: deadlines, replay, elasticity.

What the fault-tolerance machinery must guarantee, pinned as tests:

* **Deadline discipline** — a hung worker (stalled socket session, wedged
  process) fails the surrounding call within the configured ``io_timeout``
  / ``connect_timeout`` with a :class:`BackendError` naming the shard,
  never hangs the parent.
* **Idempotent replay** — a worker death / TCP reset / corrupt reply frame
  mid-stream is healed by reconnect + snapshot restore + sequenced replay,
  and the healed cluster is *bit-identical* (answers, per-shard stats,
  message accounting) to an uninterrupted run over the same push sequence,
  for every registered spec.
* **Elastic membership** — shards move between live workers mid-stream
  (``add_worker`` / ``remove_worker`` / ``move_shard``) without changing
  any answer; the placement map is versioned.
* **Graceful degradation** — ``query(..., partial=True)`` merges the live
  shards and flags the missing ones on the :class:`Answer`.

Methodology note: compared runs always use the *same* sequence of
``push_batch`` slices (:func:`_paced_run`).  Site assignment depends on
sub-batch boundaries, so two runs chunked differently legitimately differ
in message accounting — bit-identity claims are only meaningful against an
identically paced uninterrupted run.

:class:`FlakyWorker` is the reusable harness: a real :class:`WorkerServer`
whose transport misbehaves on cue (drops the connection after N frames,
stalls on frame M, corrupts one reply), with counters cumulative across
reconnections so each scripted fault fires exactly once.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import socket as socket_module
import subprocess
import sys
import threading
import time
import warnings
from functools import partial

import pytest

import repro
from repro.api import (
    Covariance,
    FrobeniusSquared,
    Frequency,
    HeavyHitters,
    SketchMatrix,
    TotalWeight,
    available_specs,
)
from repro.cluster import (
    BackendError,
    ShardedTracker,
    WorkerServer,
    merge_answer,
    shard_query_materials,
)
from repro.cluster.backends import ProcessBackend, create_backend
from repro.cluster.worker_protocol import (
    WorkerSession,
    decode_command,
    encode_command,
    encode_reply,
    unpack_reply,
    worker_command,
)
from repro.wire import send_frame

from test_api_state_roundtrip import CHUNK, HH_SPECS, MATRIX_SPECS, _params
from test_cluster import (
    _assert_same_answer,
    _assert_watermarks,
    _cluster,
    _count_submits,
)
from test_protocol_equivalence_properties import SEEDS, hh_stream, matrix_stream

ALL_SPECS = sorted(HH_SPECS) + sorted(MATRIX_SPECS)


# ---------------------------------------------------------------- harness
class FlakyWorker(WorkerServer):
    """A :class:`WorkerServer` with scripted transport faults.

    ``drop_after=N`` severs the serving connection once, upon receiving
    command frame ``N+1`` (the frame is lost — the parent must replay it).
    ``stall_at=M`` makes the worker sit on command frame ``M`` for
    ``stall_seconds`` before processing it (a hung worker, as seen by the
    parent).  ``corrupt_reply_at=K`` replaces the ``K``-th reply frame with
    garbage bytes (framing intact, body undecodable).  All counters are
    cumulative across reconnections, so each fault fires exactly once and
    the healed session runs clean.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 drop_after=None, stall_at=None, stall_seconds=8.0,
                 corrupt_reply_at=None):
        super().__init__(host, port)
        self._drop_after = drop_after
        self._stall_at = stall_at
        self._stall_seconds = stall_seconds
        self._corrupt_reply_at = corrupt_reply_at
        self._frames_seen = 0
        self._replies_sent = 0
        self._fault_lock = threading.Lock()

    def _serve_connection(self, conn):
        try:
            conn.setsockopt(socket_module.IPPROTO_TCP,
                            socket_module.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover
            pass

        def recv():
            from repro.wire import recv_frame

            data = recv_frame(conn)
            with self._fault_lock:
                self._frames_seen += 1
                seen = self._frames_seen
                drop = (self._drop_after is not None
                        and seen > self._drop_after)
                if drop:
                    self._drop_after = None
                stall = (self._stall_at is not None and seen >= self._stall_at)
                if stall:
                    self._stall_at = None
            if drop:
                try:
                    conn.shutdown(socket_module.SHUT_RDWR)
                except OSError:
                    pass
                raise ConnectionResetError("flaky worker dropped the link")
            if stall:
                time.sleep(self._stall_seconds)
            return data

        def send(frame):
            with self._fault_lock:
                self._replies_sent += 1
                corrupt = self._replies_sent == self._corrupt_reply_at
            if corrupt:
                frame = b"\x00this is not a wire frame\xff" * 2
            send_frame(conn, frame)

        try:
            WorkerSession(recv, send).serve()
        finally:
            with self._session_lock:
                self._session_socks.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


def _paced_run(cluster, batch, fault=None, fault_after=None):
    """Push ``batch`` in CHUNK slices, firing ``fault()`` once mid-stream.

    Every compared run must go through this helper with the same batch so
    the sub-batch boundaries — and with them the per-shard site assignment
    and message accounting — are identical.
    """
    slices = range(0, len(batch), CHUNK)
    if fault is not None and fault_after is None:
        fault_after = max(1, len(slices) // 2)
    for i, start in enumerate(slices):
        cluster.push_batch(batch[start:start + CHUNK])
        if fault is not None and i + 1 == fault_after:
            fault()
            fault = None
    cluster.flush()


def _spec_case(spec, seed):
    """(batch, dimension, queries) for one registered spec."""
    if spec in HH_SPECS:
        sample, batch, _ = hh_stream(seed)
        probe = max(sample.element_weights, key=sample.element_weights.get)
        return batch, None, (HeavyHitters(phi=0.06), TotalWeight(),
                             Frequency(element=probe))
    dataset, batch, _ = matrix_stream(seed)
    return batch, dataset.dimension, (Covariance(), FrobeniusSquared(),
                                      SketchMatrix())


def _socket_cluster(spec, seed, server, dimension=None, shards=2, **extra):
    options = {"addresses": [server.address], "reconnect_backoff": 0.05,
               **extra}
    return _cluster(spec, seed, shards=shards, dimension=dimension,
                    backend="socket", backend_options=options)


# Shard commands and builders defined here run on remote workers: declared
# in the worker command table, they travel by name.
@worker_command
def _shard_sleep(tracker, seconds):
    """Shard-side stall (runs on the worker): wedge the session loop."""
    time.sleep(seconds)


@worker_command
def _append(tracker, value):
    tracker.append(value)


@worker_command
def _snapshot_list(tracker):
    return list(tracker)


@worker_command(launch=True)
def _exploding_builder(index):
    """Shard builder that fails for every shard but 0."""
    if index:
        raise RuntimeError("builder exploded on purpose")
    return repro.Tracker.create("hh/P1", num_sites=2, epsilon=0.5)


# --------------------------------------------- seq/ack protocol semantics
class TestSequencedReplayProtocol:
    def _serve(self, frames):
        """Drive one WorkerSession in-memory with plain tuple commands."""
        iterator = iter(frames)

        def recv():
            try:
                return next(iterator)
            except StopIteration:
                raise EOFError

        replies = []
        session = WorkerSession(recv, replies.append,
                                decode=lambda message: message)
        session.serve()
        return session, [unpack_reply(frame) for frame in replies]

    def test_duplicate_and_stale_sequenced_submits_are_dropped(self):
        session, replies = self._serve([
            ("launch", list, (), None),
            ("submit", _append, ("a",), 1),
            ("submit", _append, ("a",), 1),   # replayed duplicate
            ("submit", _append, ("b",), 2),
            ("submit", _append, ("stale",), 1),  # below the watermark
            ("call", _snapshot_list, (), None),
        ])
        assert replies == [("ready", None, 0), ("ok", ["a", "b"], 2)]
        assert session.applied_seq == 2

    def test_resume_seq_primes_the_applied_watermark(self):
        session, replies = self._serve([
            ("launch", list, (), 5),
            ("submit", _append, ("old",), 4),   # already in restored state
            ("submit", _append, ("old",), 5),   # already in restored state
            ("submit", _append, ("new",), 6),
            ("call", _snapshot_list, (), None),
        ])
        assert replies == [("ready", None, 5), ("ok", ["new"], 6)]
        assert session.applied_seq == 6

    def test_unsequenced_submits_always_apply(self):
        _, replies = self._serve([
            ("launch", list, (), None),
            ("submit", _append, ("a",), None),
            ("submit", _append, ("a",), None),
            ("call", _snapshot_list, (), None),
        ])
        assert replies == [("ready", None, 0), ("ok", ["a", "a"], 0)]

    def test_command_frames_round_trip_seq(self):
        frame = encode_command("submit", _append, (1, 2), seq=7)
        assert decode_command(frame) == ("submit", _append, (1, 2), 7)
        op, fn, args, seq = decode_command(encode_command("submit", _append))
        assert seq is None

    def test_reply_frames_carry_the_acked_watermark(self):
        frame = encode_reply("ok", 41, acked=3)
        assert unpack_reply(frame) == ("ok", 41, 3)
        assert unpack_reply(encode_reply("ok", 41)) == ("ok", 41, None)


# -------------------------------------------------------------- deadlines
class TestDeadlines:
    def test_accept_then_stall_worker_fails_create_within_deadline(self):
        """A worker that accepts the connection but never replies 'ready'
        must fail create() within connect_timeout, not hang it (the timeout
        stays armed through the whole launch handshake)."""
        listener = socket_module.create_server(("127.0.0.1", 0))
        held = []

        def accept_and_hold():
            try:
                conn, _peer = listener.accept()
            except OSError:
                return
            held.append(conn)  # keep it open; never reply

        thread = threading.Thread(target=accept_and_hold, daemon=True)
        thread.start()
        address = "{0}:{1}".format(*listener.getsockname()[:2])
        started = time.monotonic()
        with pytest.raises(BackendError, match="no launch reply within"):
            ShardedTracker.create(
                "hh/P2", shards=1, num_sites=5, epsilon=0.1,
                backend="socket",
                backend_options={"addresses": [address],
                                 "connect_timeout": 0.5})
        assert time.monotonic() - started < 5.0
        listener.close()
        thread.join(timeout=5.0)
        for conn in held:
            conn.close()

    def test_hung_socket_worker_fails_call_within_io_timeout(self):
        # Frame 1 launches the shard, frame 2 reads its item count at
        # create; frame 3 is the query.
        with FlakyWorker(stall_at=3, stall_seconds=8.0) as server:
            cluster = _socket_cluster("hh/P2", SEEDS[0], server, shards=1,
                                      io_timeout=0.75)
            started = time.monotonic()
            with pytest.raises(BackendError, match="io_timeout"):
                cluster.query(TotalWeight())
            assert time.monotonic() - started < 5.0
            # The deadline poisons the shard: no blind retry against a
            # worker that would hang identically.
            with pytest.raises(BackendError, match="unusable"):
                cluster.query(TotalWeight())
            cluster.close()

    @pytest.mark.parametrize("backend", ["process", "shm"])
    def test_pipe_reply_past_io_timeout_poisons_the_shard(self, backend):
        """A reply that misses the deadline must never be read as a later
        call's answer: the pipe handle becomes unusable exactly as a socket
        one does, and close() still reaps the worker."""
        cluster = _cluster("hh/P2", SEEDS[0], shards=2, backend=backend,
                           backend_options={"io_timeout": 0.4})
        victim = cluster._backend._shards[0].process
        cluster._backend.submit(0, _shard_sleep, 1.0)
        with pytest.raises(BackendError, match="io_timeout"):
            cluster.query(TotalWeight())
        time.sleep(1.0)  # by now the worker has answered, too late
        # Second and third call: neither may be served the late reply.
        health = cluster.liveness()
        assert health["0"].startswith("unreachable: ") and health["1"] == "ok"
        with pytest.raises(BackendError, match="unusable"):
            cluster._backend.call(0, _snapshot_list)
        with pytest.raises(BackendError, match="unusable"):
            cluster._backend.submit(0, _shard_sleep, 0.0)
        answer = cluster.query(TotalWeight(), partial=True)
        assert answer.missing_shards == (0,)
        cluster.close()
        assert not victim.is_alive()

    def test_hung_process_worker_fails_call_within_io_timeout(self):
        cluster = _cluster("hh/P2", SEEDS[0], shards=1, backend="process",
                           backend_options={"io_timeout": 0.5,
                                            "shutdown_timeout": 0.2})
        cluster._backend.submit(0, _shard_sleep, 3.0)
        started = time.monotonic()
        with pytest.raises(BackendError, match="io_timeout"):
            cluster.query(TotalWeight())
        assert time.monotonic() - started < 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cluster.close()


# ------------------------------------------------- create()-failure leaks
class TestPartialCreateCleanup:
    def test_failed_process_launch_leaks_no_worker_processes(self):
        before = {child.pid for child in multiprocessing.active_children()}
        backend = ProcessBackend()
        with pytest.raises(BackendError, match="exploded"):
            backend.launch([partial(_exploding_builder, 0),
                            partial(_exploding_builder, 1)])
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            leaked = [child for child in multiprocessing.active_children()
                      if child.pid not in before]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked

    def test_failed_socket_launch_closes_already_launched_shards(self):
        with WorkerServer() as good:
            address = "{0}:{1}".format(*good.address)
            with pytest.raises(BackendError, match="cannot reach worker"):
                ShardedTracker.create(
                    "hh/P2", shards=2, num_sites=5, epsilon=0.1,
                    backend="socket",
                    backend_options={"addresses": [address, "127.0.0.1:9"],
                                     "connect_timeout": 0.5})
            assert good.sessions_served == 1  # shard 0 did launch...
            deadline = time.monotonic() + 5.0
            while good.active_sessions and time.monotonic() < deadline:
                time.sleep(0.02)
            assert good.active_sessions == 0  # ...and was stopped again


# ------------------------------------------------- concurrent start-up
@worker_command(launch=True)
def _timed_builder(index, log_dir, seconds, explode):
    """Shard builder that sleeps ``seconds`` on its worker, records when it
    started and returned, then builds (or explodes)."""
    started = time.monotonic()
    time.sleep(seconds)
    path = os.path.join(log_dir, f"shard-{index}")
    with open(path, "w") as out:
        out.write(f"{started!r} {time.monotonic()!r}")
    if explode:
        raise RuntimeError("builder exploded on purpose")
    return repro.Tracker.create("hh/P1", num_sites=2, epsilon=0.5)


def _timed(index, log_dir, seconds=0.5, explode=False):
    return partial(_timed_builder, index, log_dir, seconds, explode)


def _builder_spans(log_dir, shards):
    spans = []
    for index in range(shards):
        with open(os.path.join(log_dir, f"shard-{index}")) as record:
            started, returned = map(float, record.read().split())
        spans.append((started, returned))
    return spans


def _pipe_backend(name, **options):
    if name == "shm":
        from repro.cluster.shm import ShmProcessBackend

        return ShmProcessBackend(**options)
    return ProcessBackend(**options)


def _new_children(before):
    return [child for child in multiprocessing.active_children()
            if child.pid not in before]


def _await_no_sessions(server):
    deadline = time.monotonic() + 5.0
    while server.active_sessions and time.monotonic() < deadline:
        time.sleep(0.02)
    return server.active_sessions


class TestConcurrentLaunch:
    """A launch opens every shard's channel, sends every launch frame, then
    awaits every ``ready``: shards build side by side, and a failure in any
    phase hangs up and reaps every shard it opened."""

    @pytest.mark.parametrize("backend", ["process", "shm", "socket"])
    def test_every_builder_starts_before_any_returns(self, backend, tmp_path):
        shards = 3
        builders = [_timed(index, str(tmp_path))
                    for index in range(shards)]
        if backend == "socket":
            with WorkerServer() as server:
                launched = create_backend("socket", addresses=[server.address])
                launched.launch(builders)
                launched.close()
        else:
            launched = _pipe_backend(backend)
            launched.launch(builders)
            launched.close()
        spans = _builder_spans(tmp_path, shards)
        assert max(start for start, _ in spans) < min(end for _, end in spans)

    @pytest.mark.parametrize("backend", ["process", "shm"])
    def test_missed_ready_deadline_hangs_up_instead_of_waiting_out_shutdown(
            self, backend, tmp_path):
        # A forked worker holds its own copy of the parent's pipe end, so
        # closing the pipe alone never ends it: only the stop frame does.
        before = {child.pid for child in multiprocessing.active_children()}
        launched = _pipe_backend(backend, io_timeout=0.3)
        started = time.monotonic()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BackendError,
                               match=r"shard 0 failed to start.*io_timeout"):
                launched.launch([_timed(0, str(tmp_path), seconds=1.0),
                                 _timed(1, str(tmp_path), seconds=0.0)])
        assert time.monotonic() - started < 3.0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not _new_children(before)

    @pytest.mark.parametrize("backend", ["process", "shm"])
    def test_worker_failure_mid_fan_out_reaps_every_worker(self, backend,
                                                           tmp_path):
        before = {child.pid for child in multiprocessing.active_children()}
        launched = _pipe_backend(backend)
        with pytest.raises(BackendError,
                           match=r"shard 1 failed to start.*exploded"):
            launched.launch([
                _timed(0, str(tmp_path)),
                _timed(1, str(tmp_path), seconds=0.0, explode=True),
            ])
        assert not _new_children(before)

    def test_socket_worker_failure_mid_fan_out_ends_every_session(
            self, tmp_path):
        with WorkerServer() as server:
            launched = create_backend("socket", addresses=[server.address])
            with pytest.raises(BackendError,
                               match=r"shard 1 failed to start.*exploded"):
                launched.launch([
                    _timed(0, str(tmp_path)),
                    _timed(1, str(tmp_path), seconds=0.0, explode=True),
                ])
            assert server.sessions_served == 2
            assert _await_no_sessions(server) == 0

    def test_unreachable_socket_shard_mid_fan_out_ends_every_session(
            self, tmp_path):
        with WorkerServer() as server:
            launched = create_backend(
                "socket", addresses=[server.address, "127.0.0.1:9"],
                connect_timeout=0.5)
            with pytest.raises(BackendError,
                               match=r"cannot reach worker 127\.0\.0\.1:9 "
                                     r"for shard 1"):
                launched.launch([_timed(0, str(tmp_path)),
                                 _timed(1, str(tmp_path))])
            assert server.sessions_served == 1
            assert _await_no_sessions(server) == 0
        # Every channel opens before any launch frame goes out.
        assert not (tmp_path / "shard-0").exists()


# --------------------------------------------------- shutdown escalation
class TestShutdownEscalation:
    def test_wedged_process_worker_is_terminated_with_a_warning(self):
        cluster = _cluster("hh/P2", SEEDS[0], shards=1, backend="process",
                           backend_options={"shutdown_timeout": 0.3})
        cluster._backend.submit(0, _shard_sleep, 30.0)
        with pytest.warns(RuntimeWarning,
                          match=r"repro-shard-0 .* escalating to terminate"):
            cluster.close()


# ------------------------------------------------ reconnect-and-replay
class TestReplayHeal:
    @pytest.mark.parametrize("spec", ["hh/P2", "hh/P3", "matrix/P1"])
    def test_connection_drop_heals_bit_identically(self, spec):
        seed = SEEDS[0]
        batch, dimension, queries = _spec_case(spec, seed)
        with WorkerServer() as quiet:
            baseline = _socket_cluster(spec, seed, quiet, dimension)
            _paced_run(baseline, batch)
            expected = [baseline.query(query) for query in queries]
            expected_stats = baseline.stats()
            baseline.close()
        with FlakyWorker(drop_after=10) as server:
            cluster = _socket_cluster(spec, seed, server, dimension)
            _paced_run(cluster, batch)
            assert sum(shard.recoveries
                       for shard in cluster._backend._shards) >= 1
            stats = cluster.stats()
            assert stats.message_counts == expected_stats.message_counts
            assert stats.per_shard == expected_stats.per_shard
            for query, reference in zip(queries, expected):
                _assert_same_answer(cluster.query(query), reference)
            cluster.close()

    def test_corrupt_reply_frame_triggers_recovery_not_garbage(self):
        seed = SEEDS[0]
        batch, _, queries = _spec_case("hh/P2", seed)
        with WorkerServer() as quiet:
            baseline = _socket_cluster("hh/P2", seed, quiet)
            _paced_run(baseline, batch)
            expected = [baseline.query(query) for query in queries]
            baseline.close()
        # Replies 1-2 are the two launch 'ready's and 3-4 the shards' item
        # counts read at create; reply 5 is the first barrier reply —
        # corrupt exactly that one.
        with FlakyWorker(corrupt_reply_at=5) as server:
            cluster = _socket_cluster("hh/P2", seed, server)
            _paced_run(cluster, batch)
            assert sum(shard.recoveries
                       for shard in cluster._backend._shards) >= 1
            for query, reference in zip(queries, expected):
                _assert_same_answer(cluster.query(query), reference)
            cluster.close()

    def test_repeatedly_corrupt_worker_poisons_the_shard(self):
        # Every reply corrupted: bounded recovery must give up, not loop.
        class _AlwaysCorrupt:
            """Compares equal to any reply counter: corrupt every reply."""

            def __eq__(self, other):
                return True

        with FlakyWorker() as server:
            cluster = _socket_cluster("hh/P2", SEEDS[0], server, shards=1,
                                      reconnect_attempts=1,
                                      reconnect_backoff=0.0)
            with server._fault_lock:
                server._corrupt_reply_at = _AlwaysCorrupt()
            with pytest.raises(BackendError, match="corrupt reply frame"):
                cluster.query(TotalWeight())
            cluster.close()


# ------------------------------------ acceptance: kill + restart, all specs
class TestKillRestartBitIdentity:
    def test_every_registered_spec_is_covered(self):
        assert ALL_SPECS == available_specs()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_mid_stream_kill_heals_bit_identically(self, spec, seed):
        """Sever every live session mid-stream; the healed cluster must be
        bit-identical — answers, message accounting, per-shard stats — to
        an uninterrupted run over the same push sequence."""
        batch, dimension, queries = _spec_case(spec, seed)
        with WorkerServer() as quiet:
            baseline = _socket_cluster(spec, seed, quiet, dimension)
            _paced_run(baseline, batch)
            expected = [baseline.query(query) for query in queries]
            expected_stats = baseline.stats()
            baseline.close()
        with WorkerServer() as server:
            cluster = _socket_cluster(spec, seed, server, dimension)
            _paced_run(cluster, batch, fault=server.kill_sessions)
            assert all(shard.recoveries >= 1
                       for shard in cluster._backend._shards)
            stats = cluster.stats()
            assert stats.items_processed == expected_stats.items_processed
            assert stats.total_messages == expected_stats.total_messages
            assert stats.message_counts == expected_stats.message_counts
            assert stats.per_shard == expected_stats.per_shard
            for query, reference in zip(queries, expected):
                _assert_same_answer(cluster.query(query), reference)
            cluster.close()

    @pytest.mark.parametrize("spec", ["hh/P3", "matrix/P4"])
    def test_mid_stream_kill_heals_via_snapshot_restore(self, spec):
        """With a 1-byte replay budget every push snapshots, so recovery
        exercises the snapshot-restore + resume_seq path, not raw replay."""
        seed = SEEDS[0]
        batch, dimension, queries = _spec_case(spec, seed)
        with WorkerServer() as quiet:
            baseline = _socket_cluster(spec, seed, quiet, dimension,
                                       replay_log_bytes=1)
            _paced_run(baseline, batch)
            expected = [baseline.query(query) for query in queries]
            baseline.close()
        with WorkerServer() as server:
            cluster = _socket_cluster(spec, seed, server, dimension,
                                      replay_log_bytes=1)
            _paced_run(cluster, batch, fault=server.kill_sessions)
            shards = cluster._backend._shards
            assert all(shard.recoveries >= 1 for shard in shards)
            assert all(shard._snapshot is not None for shard in shards)
            for query, reference in zip(queries, expected):
                _assert_same_answer(cluster.query(query), reference)
            cluster.close()


# ------------------------------------------------------ elastic membership
class TestElasticMembership:
    def test_add_and_remove_worker_mid_stream_bit_identical(self):
        seed, spec = SEEDS[0], "hh/P3"
        batch, _, queries = _spec_case(spec, seed)
        reference = _cluster(spec, seed, shards=4)
        _paced_run(reference, batch)
        expected = [reference.query(query) for query in queries]
        expected_stats = reference.stats()
        reference.close()
        with WorkerServer() as a, WorkerServer() as b, WorkerServer() as c:
            cluster = _cluster(
                spec, seed, shards=4, backend="socket",
                backend_options={"addresses": [a.address, b.address]})
            version = cluster.placement_version
            slices = list(range(0, len(batch), CHUNK))
            for i, start in enumerate(slices):
                cluster.push_batch(batch[start:start + CHUNK])
                if i == len(slices) // 3:
                    moved = cluster.add_worker(c.address)
                    assert moved  # fair share 4 // 3 = 1 shard
                if i == 2 * len(slices) // 3:
                    evacuated = cluster.remove_worker(a.address)
                    assert evacuated
            cluster.flush()
            assert cluster.placement_version >= version + 2
            hosts = {tuple(address) for address in cluster.placement()}
            assert tuple(a.address) not in hosts
            assert hosts <= {tuple(b.address), tuple(c.address)}
            stats = cluster.stats()
            assert stats.message_counts == expected_stats.message_counts
            assert stats.per_shard == expected_stats.per_shard
            for query, reference_answer in zip(queries, expected):
                _assert_same_answer(cluster.query(query), reference_answer)
            cluster.close()

    def test_move_shard_is_a_live_handoff(self):
        seed, spec = SEEDS[0], "hh/P3"
        batch, _, queries = _spec_case(spec, seed)
        reference = _cluster(spec, seed, shards=2)
        _paced_run(reference, batch)
        expected = [reference.query(query) for query in queries]
        reference.close()
        with WorkerServer() as a, WorkerServer() as b:
            cluster = _socket_cluster(spec, seed, a)
            version = cluster.placement_version
            half = (len(batch) // (2 * CHUNK)) * CHUNK
            for start in range(0, half, CHUNK):
                cluster.push_batch(batch[start:start + CHUNK])
            cluster.move_shard(0, b.address)
            assert tuple(cluster.placement()[0]) == tuple(b.address)
            assert cluster.placement_version == version + 1
            for start in range(half, len(batch), CHUNK):
                cluster.push_batch(batch[start:start + CHUNK])
            cluster.flush()
            for query, reference_answer in zip(queries, expected):
                _assert_same_answer(cluster.query(query), reference_answer)
            cluster.close()

    def test_watermarks_continue_through_a_move_and_a_heal(self):
        """The relaunch primes ``resume_seq`` from the snapshot, so the
        applied-seq watermark continues rather than restarting."""
        _, batch, _ = hh_stream(SEEDS[0])
        with WorkerServer() as a, WorkerServer() as b:
            cluster = _socket_cluster("hh/P2", SEEDS[0], a)
            routed = _count_submits(cluster)

            def move_then_sever():
                cluster.move_shard(0, b.address)  # snapshots shard 0
                a.kill_sessions()
                b.kill_sessions()

            _paced_run(cluster, batch, fault=move_then_sever)
            shards = cluster._backend._shards
            assert shards[0]._snapshot is not None
            assert all(shard.recoveries >= 1 for shard in shards)
            _assert_watermarks(cluster, routed)
            cluster.close()

    def test_elastic_membership_requires_the_socket_backend(self):
        with _cluster("hh/P2", SEEDS[0], shards=2) as cluster:
            with pytest.raises(BackendError, match="elastic membership"):
                cluster.add_worker("127.0.0.1:1")
            with pytest.raises(BackendError, match="elastic membership"):
                cluster.placement()

    def test_removing_the_last_worker_is_refused(self):
        with WorkerServer() as server:
            cluster = _socket_cluster("hh/P2", SEEDS[0], server)
            with pytest.raises(BackendError, match="last worker"):
                cluster.remove_worker(server.address)
            cluster.close()


# --------------------------------------------------- graceful degradation
class TestPartialAnswers:
    def _serial_reference(self, spec, seed, batch):
        reference = _cluster(spec, seed, shards=2)
        _paced_run(reference, batch)
        return reference

    def _expected_partial(self, reference, query, missing):
        live = [shard_query_materials(tracker, query)
                for index, tracker in enumerate(reference._backend._trackers)
                if index not in missing]
        return merge_answer(query, live, missing_shards=missing)

    def test_socket_partial_query_merges_live_shards(self):
        seed, spec = SEEDS[0], "hh/P2"
        _, batch, _ = hh_stream(seed)
        reference = self._serial_reference(spec, seed, batch)
        first = WorkerServer().start()
        second = WorkerServer().start()
        try:
            cluster = _cluster(
                spec, seed, shards=2, backend="socket",
                backend_options={"addresses": [first.address, second.address],
                                 "connect_timeout": 0.5,
                                 "reconnect_attempts": 1,
                                 "reconnect_backoff": 0.0})
            _paced_run(cluster, batch)
            # Worker 2 (hosting shard 1) dies for good: listener down,
            # sessions severed — recovery has nowhere to go.
            second.stop()
            second.kill_sessions()
            with pytest.raises(BackendError):
                cluster.query(TotalWeight())  # non-partial still fails loudly
            for query in (TotalWeight(), HeavyHitters(phi=0.06)):
                answer = cluster.query(query, partial=True)
                assert answer.is_partial
                assert answer.missing_shards == (1,)
                assert tuple(answer.to_dict()["missing_shards"]) == (1,)
                expected = self._expected_partial(reference, query, (1,))
                _assert_same_answer(answer, expected)
            full = reference.query(TotalWeight())
            partial = cluster.query(TotalWeight(), partial=True)
            assert partial.estimate < full.estimate  # degraded, and says so
            cluster.close()
        finally:
            reference.close()
            first.stop()
            second.stop()

    def test_process_partial_query_flags_the_killed_shard(self):
        seed, spec = SEEDS[0], "hh/P2"
        _, batch, _ = hh_stream(seed)
        reference = self._serial_reference(spec, seed, batch)
        cluster = _cluster(spec, seed, shards=2, backend="process")
        try:
            _paced_run(cluster, batch)
            victim = cluster._backend._shards[1].process
            victim.kill()
            victim.join(timeout=10.0)
            answer = cluster.query(TotalWeight(), partial=True)
            assert answer.is_partial and answer.missing_shards == (1,)
            _assert_same_answer(
                answer, self._expected_partial(reference, TotalWeight(), (1,)))
        finally:
            reference.close()
            cluster.close()

    def test_partial_query_with_every_shard_dead_raises(self):
        server = WorkerServer().start()
        cluster = _cluster(
            "hh/P2", SEEDS[0], shards=2, backend="socket",
            backend_options={"addresses": [server.address],
                             "connect_timeout": 0.5,
                             "reconnect_attempts": 1,
                             "reconnect_backoff": 0.0})
        try:
            _, batch, _ = hh_stream(SEEDS[0])
            _paced_run(cluster, batch)
            server.stop()
            server.kill_sessions()
            with pytest.raises(BackendError, match="all 2 shard"):
                cluster.query(TotalWeight(), partial=True)
        finally:
            cluster.close()
            server.stop()

    def test_full_query_on_a_healthy_cluster_is_not_partial(self):
        with WorkerServer() as server:
            cluster = _socket_cluster("hh/P2", SEEDS[0], server)
            _, batch, _ = hh_stream(SEEDS[0])
            _paced_run(cluster, batch)
            answer = cluster.query(TotalWeight(), partial=True)
            assert not answer.is_partial
            assert answer.missing_shards == ()
            cluster.close()


# ------------------------------------------------------------ chaos smoke
def _spawn_cli_worker(extra_args=()):
    """Start a real `repro-experiments worker` subprocess; return (proc, addr)."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(repro.__file__),
                                       os.pardir))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "worker",
         "--listen", "127.0.0.1:0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True)
    deadline = time.monotonic() + 60.0
    banner = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"worker exited with {proc.returncode} before listening")
            time.sleep(0.05)
            continue
        if "listening on" in line:
            banner = line
            break
    match = re.search(r"listening on ([0-9.]+):(\d+)", banner)
    if not match:
        proc.kill()
        raise RuntimeError(f"no listen banner from worker: {banner!r}")
    return proc, f"{match.group(1)}:{match.group(2)}"


def _stop_worker(proc):
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10.0)
    proc.stdout.close()


class TestChaosWorkerKill:
    def test_chaos_sigkill_worker_fails_over_to_standby(self):
        """Real worker processes: SIGKILL the primary mid-stream; every
        shard must fail over to the standby via replay and finish with
        answers bit-identical to an unkilled same-paced serial run."""
        seed, spec = SEEDS[0], "hh/P3"
        batch, _, queries = _spec_case(spec, seed)
        reference = _cluster(spec, seed, shards=2)
        _paced_run(reference, batch)
        expected = [reference.query(query) for query in queries]
        expected_stats = reference.stats()
        reference.close()

        primary, primary_address = _spawn_cli_worker()
        standby, standby_address = _spawn_cli_worker(("--standby",))
        try:
            cluster = _cluster(
                spec, seed, shards=2, backend="socket",
                backend_options={"addresses": [primary_address],
                                 "spare_addresses": [standby_address],
                                 "connect_timeout": 10.0,
                                 "reconnect_backoff": 0.05})

            def kill_primary():
                primary.kill()
                primary.wait(timeout=10.0)

            _paced_run(cluster, batch, fault=kill_primary)
            shards = cluster._backend._shards
            assert all(shard.recoveries >= 1 for shard in shards)
            standby_host, standby_port = standby_address.rsplit(":", 1)
            assert all(shard.address == (standby_host, int(standby_port))
                       for shard in shards)
            stats = cluster.stats()
            assert stats.message_counts == expected_stats.message_counts
            assert stats.per_shard == expected_stats.per_shard
            for query, reference_answer in zip(queries, expected):
                _assert_same_answer(cluster.query(query), reference_answer)
            cluster.close()
        finally:
            _stop_worker(primary)
            _stop_worker(standby)


def _one_row_run(cluster, batch, sites, fault=None):
    """Half the stream in CHUNK slices, the rest one row per push, firing
    ``fault()`` once, midway through the one-row pushes."""
    half = len(batch) // 2
    for start in range(0, half, CHUNK):
        cluster.push_batch(batch[start:min(start + CHUNK, half)])
    for index in range(half, len(batch)):
        cluster.push(int(sites[index]), batch[index])
        if fault is not None and index == (half + len(batch)) // 2:
            fault()
    cluster.flush()


class TestChaosOneRowIngest:
    def test_chaos_sigkill_compressed_worker_replays_one_row_ingest(self):
        """SIGKILL a compressing socket worker while its shards' replay logs
        hold one-row ``ingest`` frames: the standby replays them and the
        cluster ends bit-identical to an unkilled same-paced serial run."""
        from repro.cluster.worker_protocol import INGEST_KIND
        from repro.wire import peek_kind

        seed, spec = SEEDS[0], "matrix/P2"
        dataset, batch, sites = matrix_stream(seed)
        queries = (Covariance(), FrobeniusSquared(), SketchMatrix())
        reference = _cluster(spec, seed, shards=2,
                             dimension=dataset.dimension)
        _one_row_run(reference, batch, sites)
        expected = [reference.query(query) for query in queries]
        expected_stats = reference.stats()
        reference.close()

        primary, primary_address = _spawn_cli_worker()
        standby, standby_address = _spawn_cli_worker(("--standby",))
        try:
            cluster = _cluster(
                spec, seed, shards=2, dimension=dataset.dimension,
                backend="socket",
                backend_options={"addresses": [primary_address],
                                 "spare_addresses": [standby_address],
                                 "compress": True,
                                 "connect_timeout": 10.0,
                                 "reconnect_backoff": 0.05})
            logged = []

            def kill_primary():
                logged.extend(peek_kind(frame)
                              for shard in cluster._backend._shards
                              for _, frame in shard._log)
                primary.kill()
                primary.wait(timeout=10.0)

            _one_row_run(cluster, batch, sites, fault=kill_primary)
            assert set(logged) == {INGEST_KIND}
            assert len(logged) > len(batch) // 4
            shards = cluster._backend._shards
            assert all(shard.recoveries >= 1 for shard in shards)
            stats = cluster.stats()
            assert stats.message_counts == expected_stats.message_counts
            assert stats.per_shard == expected_stats.per_shard
            for query, reference_answer in zip(queries, expected):
                _assert_same_answer(cluster.query(query), reference_answer)
            cluster.close()
        finally:
            _stop_worker(primary)
            _stop_worker(standby)
