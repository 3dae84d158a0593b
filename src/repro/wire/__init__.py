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
  (``plain=True``: only JSON-shaped values and float64/int64/bool arrays,
  no deflate or raw array section), the mode for peers that are not this
  program's own processes.

The layer has two halves: the value codec (:mod:`repro.wire.codec`) that
turns plain value trees — containers, numbers, strings, NumPy arrays and
scalars — into tagged bytes and back *bit-identically*, and the frame
envelope (:mod:`repro.wire.frames`) adding magic/version/kind/CRC so
readers fail loudly on garbage, corruption or version skew instead of
resuming with a wrong payload.  Protocols, sketches and partitioners
declare their checkpoints as such trees (:mod:`repro.api.state`), so no
frame names a class.

Decoding is hardened by construction: no tag names a class, a function, an
enum or an exception, so decoding never imports a module or runs code taken
from the payload.
"""

from .codec import (
    WireDecodeError,
    WireEncodeError,
    WireError,
    decode_value,
    encode_value,
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
]
