"""The same-host ``shm`` engine backend: shared-memory shard dispatch.

The process backend moves every byte of a batch chunk through an OS pipe:
the parent serializes rows into a frame, the kernel copies the frame into
the pipe buffer, the worker copies it back out and the decoder copies the
array payload once more.  For wide matrix rows the pipe is pure overhead —
parent and worker share a machine, so the row bytes can travel through one
shared-memory mapping instead.

This backend keeps the worker protocol and its pipe exactly as they are
(commands, replies, FIFO discipline, error handling — all unchanged), but
diverts large array payloads out of the frame through a per-shard
single-producer/single-consumer **shared-memory ring**:

* the parent's frame encoder hands each large array to an ``array_sink``
  that copies it straight into the ring and emits a tiny
  ``(offset, length)`` reference into the frame (a storage-1 column of an
  ``ingest`` frame, the codec's ``_SHMARRAY`` tag anywhere else), so the
  pipe only ever carries control traffic;
* the worker's decoder resolves each reference from its mapping of the same
  segment — one copy out of the ring into a worker-owned array (the result
  must outlive the ring slot, so a true zero-copy view would be unsafe) —
  and acknowledges the bytes so the parent can reuse them.

Flow control is a pair of monotonic byte counters, one per side.  The
parent tracks how much it has reserved; the worker publishes how much it
has consumed in the segment header.  Records never wrap: a record that
would straddle the end of the ring skips to the start (the skipped pad is
acknowledged implicitly by the next record's end offset).  The counters
only grow, so there is no ABA hazard, and the worker writes its counter
low-word-first while the parent reads high-word-first — a torn read can
only *under*-estimate progress, which merely makes the parent wait one
more poll interval.

Arrays below :data:`~repro.wire.codec.MIN_OUT_OF_BAND_BYTES` (reference
overhead dominates; compressed frames use the same threshold) or
larger than the ring stay inline in the frame — the sink declines and the
encoder falls back to the ordinary in-band path, so any payload mix works
with any ring size.

Python 3.12 and earlier register *attached* segments with the
``multiprocessing`` resource tracker as if the attacher owned them, which
makes the tracker unlink segments that the parent still uses when a worker
exits.  The worker therefore unregisters its attachment immediately; the
parent alone unlinks each segment when the backend closes.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import shared_memory
from typing import Any, Callable, Optional, Tuple

import numpy as np

from ..obs.metrics import REGISTRY
from ..wire import WireDecodeError
from ..wire.codec import MIN_OUT_OF_BAND_BYTES
from .backends import (
    DEFAULT_SHUTDOWN_TIMEOUT,
    BackendError,
    BackendSpec,
    ProcessBackend,
    _ProcessShard,
    _register,
)
from .worker_protocol import WorkerSession, decode_command

__all__ = [
    "DEFAULT_RING_BYTES",
    "ShmProcessBackend",
    "ShmRing",
]

#: Default per-shard ring capacity.  16 MiB holds dozens of in-flight
#: batch chunks at the default chunk sizes; raise it for very wide rows.
DEFAULT_RING_BYTES = 1 << 24

#: Smallest ring this module will build — below this, records would wrap
#: constantly and the pipe fallback is faster anyway.
MIN_RING_BYTES = 1 << 16

#: Segment header: the worker-owned consumed counter as two little-endian
#: u32 words (low word at offset 0, high word at offset 4), padded to 16
#: bytes so the data region starts aligned.
_HEADER_BYTES = 16
_WORD = struct.Struct("<I")

#: Parent poll interval while waiting for ring space, and how often the
#: worker process is checked for liveness while waiting.
_POLL_SECONDS = 0.0002
_LIVENESS_EVERY = 256


def _read_consumed(buf: memoryview) -> int:
    """Parent-side read of the worker's consumed counter (under-estimates
    on a torn read, never over-estimates: high word first, low word after —
    the writer updates the low word first)."""
    high = _WORD.unpack_from(buf, 4)[0]
    low = _WORD.unpack_from(buf, 0)[0]
    return (high << 32) | low


def _write_consumed(buf: memoryview, value: int) -> None:
    """Worker-side publish of the consumed counter (low word first)."""
    _WORD.pack_into(buf, 0, value & 0xFFFFFFFF)
    _WORD.pack_into(buf, 4, value >> 32)


class ShmRing:
    """Parent (producer) side of one shard's shared-memory byte ring."""

    def __init__(self, capacity: int = DEFAULT_RING_BYTES):
        capacity = int(capacity)
        if capacity < MIN_RING_BYTES:
            raise ValueError(
                f"ring_bytes must be at least {MIN_RING_BYTES}, got {capacity}"
            )
        self.capacity = capacity
        self._segment = shared_memory.SharedMemory(
            create=True, size=_HEADER_BYTES + capacity)
        self._reserved = 0        # monotonic bytes handed out, pads included

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._segment.name

    def reserve(self, length: int, worker_alive: Callable[[], bool]) -> int:
        """Claim ``length`` contiguous bytes; returns their monotonic offset.

        Blocks (polling) until the worker has consumed enough earlier bytes.
        ``worker_alive`` breaks the wait when the consumer is gone — without
        it a dead worker would turn a full ring into an infinite spin.
        """
        if length > self.capacity:
            raise ValueError(
                f"record of {length} bytes exceeds the {self.capacity}-byte ring"
            )
        start = self._reserved
        position = start % self.capacity
        if position + length > self.capacity:
            start += self.capacity - position      # pad: never wrap a record
        end = start + length
        polls = 0
        while end - _read_consumed(self._segment.buf) > self.capacity:
            polls += 1
            if polls % _LIVENESS_EVERY == 0 and not worker_alive():
                raise BackendError(
                    "shard worker died while the parent was waiting for "
                    "shared-memory ring space"
                )
            time.sleep(_POLL_SECONDS)
        self._reserved = end
        return start

    def write(self, start: int, payload: memoryview) -> None:
        """Copy ``payload`` into the slot returned by :meth:`reserve`."""
        position = _HEADER_BYTES + start % self.capacity
        self._segment.buf[position:position + payload.nbytes] = payload

    def destroy(self) -> None:
        """Release the parent mapping and unlink the segment (idempotent)."""
        if self._segment is None:
            return
        segment, self._segment = self._segment, None
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass


class _RingReader:
    """Worker (consumer) side: resolve ``(offset, length)`` references."""

    def __init__(self, name: str):
        # Attaching would register the segment with the resource tracker as
        # if this process owned it (fixed only in Python 3.13) — under fork
        # the tracker is shared with the parent, so a later unregister here
        # would erase the *parent's* ownership record.  Suppress the
        # attach-time registration instead: the parent alone owns and
        # unlinks each ring.
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _register_skip_shm(resource_name: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - other rtypes
                original(resource_name, rtype)

        resource_tracker.register = _register_skip_shm
        try:
            self._segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
        self.capacity = self._segment.size - _HEADER_BYTES
        self._consumed = 0

    def take_array(self, dtype: np.dtype, shape: tuple, reference: Any
                   ) -> np.ndarray:
        """Codec ``array_source``: copy one record out and acknowledge it."""
        if (not isinstance(reference, tuple) or len(reference) != 2
                or not all(isinstance(part, int) for part in reference)):
            raise WireDecodeError(
                f"malformed shared-memory array reference {reference!r}"
            )
        start, length = reference
        expected = dtype.itemsize
        for dim in shape:
            expected *= int(dim)
        position = start % self.capacity
        if (start < 0 or length != expected or length > self.capacity
                or position + length > self.capacity):
            raise WireDecodeError(
                f"shared-memory array reference {reference!r} does not fit "
                f"a {self.capacity}-byte ring or its declared shape {shape}"
            )
        offset = _HEADER_BYTES + position
        array = np.frombuffer(
            self._segment.buf, dtype=dtype,
            count=expected // dtype.itemsize, offset=offset,
        ).reshape(shape).copy()
        # Monotonic acknowledgement; covers any pad before this record.
        self._consumed = max(self._consumed, start + length)
        _write_consumed(self._segment.buf, self._consumed)
        return array

    def close(self) -> None:
        try:
            self._segment.close()
        except OSError:  # pragma: no cover
            pass


def _shm_worker_main(conn: Any, ring_name: str) -> None:
    """Worker loop: the ordinary wire worker protocol over the pipe, with
    shared-memory references resolved from the shard's ring."""
    # Same post-fork hygiene as _process_worker_main: inherited series
    # belong to the parent, not this worker's hostname:pid snapshot.
    REGISTRY.reset()
    reader = _RingReader(ring_name)
    session = WorkerSession(
        conn.recv_bytes, conn.send_bytes,
        decode=lambda data: decode_command(
            data, array_source=reader.take_array),
    )
    try:
        session.serve()
    finally:
        reader.close()
        conn.close()


class _ShmShard(_ProcessShard):
    """A :class:`_ProcessShard` whose large arrays bypass the pipe: it adds
    the ring, the ring-reading worker loop and the codec ``array_sink``."""

    def __init__(self, index: int, context: Any, ring_bytes: int,
                 io_timeout: Optional[float] = None,
                 shutdown_timeout: float = DEFAULT_SHUTDOWN_TIMEOUT):
        self._ring: Optional[ShmRing] = ShmRing(ring_bytes)
        self._frame_options = {"array_sink": self._sink}
        # A failed start must release the ring too — this handle is not
        # yet registered with the backend, so nothing else can.
        try:
            super().__init__(index, context, io_timeout,
                             shutdown_timeout, target=_shm_worker_main,
                             target_args=(self._ring.name,))
        except BaseException:
            self._destroy_ring()
            raise

    def _sink(self, array: np.ndarray) -> Optional[Tuple[int, int]]:
        """Codec ``array_sink``: divert one array through the ring, or
        decline (``None`` → the encoder keeps the array in-band)."""
        length = array.nbytes
        if length < MIN_OUT_OF_BAND_BYTES or length > self._ring.capacity:
            return None
        start = self._ring.reserve(length, self.process.is_alive)
        self._ring.write(start, memoryview(array).cast("B"))
        return (start, length)

    def _destroy_ring(self) -> None:
        if self._ring is not None:
            ring, self._ring = self._ring, None
            ring.destroy()

    def stop(self) -> None:
        try:
            super().stop()
        finally:
            # Unlink only after the worker has exited (or been terminated):
            # the segment must outlive every attachment that resolves
            # in-flight references.
            self._destroy_ring()


class ShmProcessBackend(ProcessBackend):
    """One persistent worker process per shard, fed through shared memory.

    Identical command/reply semantics to the ``process`` backend — same
    worker protocol, same FIFO discipline, same failure behaviour — but
    batch-chunk arrays bypass the pipe through a per-shard shared-memory
    ring, so the per-chunk cost no longer scales with the kernel's pipe
    throughput.  Same-host only by construction.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method (default: ``fork`` if available).
    ring_bytes:
        Per-shard ring capacity (default 16 MiB).  Arrays larger than the
        ring fall back to in-band transport automatically.
    """

    name = "shm"

    def __init__(self, start_method: Optional[str] = None,
                 ring_bytes: int = DEFAULT_RING_BYTES,
                 io_timeout: Optional[float] = None,
                 shutdown_timeout: float = DEFAULT_SHUTDOWN_TIMEOUT):
        super().__init__(start_method=start_method, io_timeout=io_timeout,
                         shutdown_timeout=shutdown_timeout)
        if int(ring_bytes) < MIN_RING_BYTES:
            raise ValueError(
                f"ring_bytes must be at least {MIN_RING_BYTES}, got {ring_bytes}"
            )
        self._ring_bytes = int(ring_bytes)

    def _open_shard(self, index: int, builder: Callable[[], Any]) -> _ShmShard:
        return _ShmShard(index, self._context, self._ring_bytes,
                         io_timeout=self._io_timeout,
                         shutdown_timeout=self._shutdown_timeout)


_register(BackendSpec(
    name="shm", backend_class=ShmProcessBackend,
    summary="worker processes fed via shared-memory rings (same host)",
))
