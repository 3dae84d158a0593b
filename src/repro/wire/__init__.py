"""``repro.wire`` — the pickle-free columnar serialization layer.

One versioned, self-describing binary format used by every layer that
previously reached for :mod:`pickle`:

* **Checkpoints** — ``Tracker.save``/``Tracker.load`` and the cluster
  checkpoint files are wire frames (:mod:`repro.api.state`), which removes
  the "only load files you wrote yourself" caveat of pickle checkpoints.
* **Shard transport** — the cluster worker protocol
  (:mod:`repro.cluster.worker_protocol`) ships columnar batch chunks, query
  materials and shard state as wire frames over process pipes.
* **Multi-host sockets** — the ``"socket"`` engine backend
  (:mod:`repro.cluster.socket_backend`) speaks length-prefixed wire frames
  over TCP to workers started with ``repro-experiments worker --listen``.
* **The HTTP gateway** — ``application/x-repro-wire`` request and response
  bodies (:mod:`repro.gateway.http`) are frames of *plain data* only
  (``plain=True``: no name resolution, no references, no deflate or raw
  array section), the mode for peers that are not this program's own
  processes.

The layer has two halves: the value codec (:mod:`repro.wire.codec`) that
turns arbitrary repro state graphs — NumPy arrays as dtype/shape/contiguous
bytes, scalars, counters, nested :class:`~repro.utils.stateio.Stateful`
states with their ``state_version`` markers — into tagged bytes and back
*bit-identically*, and the frame envelope (:mod:`repro.wire.frames`) adding
magic/version/kind/CRC so readers fail loudly on garbage, corruption or
version skew instead of resuming with a wrong payload.

Decoding is hardened by construction: no callable from the payload is ever
executed, class references resolve only inside the ``repro`` package, and
functions have no encoding at all.
"""

from .codec import (
    WireDecodeError,
    WireEncodeError,
    WireError,
    decode_value,
    encode_value,
    encode_with_extensions,
)
from .frames import (
    WIRE_BASE_VERSION,
    WIRE_MAGIC,
    WIRE_VERSION,
    is_wire_data,
    pack_frame,
    peek_kind,
    read_frame,
    recv_frame,
    send_frame,
    unpack_frame,
    write_frame,
)

__all__ = [
    "WireError",
    "WireEncodeError",
    "WireDecodeError",
    "encode_value",
    "encode_with_extensions",
    "decode_value",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WIRE_BASE_VERSION",
    "is_wire_data",
    "pack_frame",
    "peek_kind",
    "unpack_frame",
    "read_frame",
    "write_frame",
    "send_frame",
    "recv_frame",
    "encode_state",
    "decode_state",
    "STATE_FRAME_KIND",
]

#: Frame kind used for bare ``Stateful`` snapshots.
STATE_FRAME_KIND = "repro/state"


def encode_state(stateful, kind: str = STATE_FRAME_KIND) -> bytes:
    """Snapshot one :class:`~repro.utils.stateio.Stateful` object as a frame.

    The snapshot references live state (``copy_data=False``) and is encoded
    immediately, so the object may keep running the moment this returns —
    the pattern the cluster layer uses to capture shard state on the worker
    without a cluster-wide ingestion barrier.
    """
    return pack_frame(kind, stateful.get_state(copy_data=False))


def decode_state(data: bytes, kind: str = STATE_FRAME_KIND):
    """Rebuild the object captured by :func:`encode_state`."""
    from ..utils.stateio import StateError, restore_object

    _, state = unpack_frame(data, expected_kind=kind)
    try:
        return restore_object(state, copy_data=False)
    except StateError as exc:
        raise WireDecodeError(f"cannot restore state frame: {exc}") from exc
