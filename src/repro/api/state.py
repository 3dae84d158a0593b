"""Checkpoint/restore for tracker sessions and raw protocols.

Long-running continuous-tracking sessions need to survive process restarts:
``tracker.save(path)`` writes a versioned checkpoint and
``Tracker.load(path)`` resumes it **bit-identically** — the restored session
produces the same messages, the same seeded RNG draws and the same query
answers as a session that never stopped.  This works because every stateful
component implements the versioned ``get_state``/``set_state`` contract of
:class:`~repro.utils.stateio.Stateful`:

* all protocol classes (coordinator state, per-site states, thresholds),
* every sketch they embed (Misra-Gries, SpaceSaving, Frequent Directions, …),
* the :class:`~repro.streaming.network.Network` and its
  :class:`~repro.streaming.network.CommunicationLog` (message accounting
  resumes at the exact counters/sequence numbers),
* the per-site ``numpy.random.Generator`` streams (bit-generator state is
  captured exactly), and
* the session partitioner (so site assignment continues its sequence).

File format: one :mod:`repro.wire` frame whose kind labels the checkpoint
flavour (``repro/tracker-checkpoint`` / ``repro/protocol-checkpoint``) and
whose body is ``{"version", ...}`` with :data:`CHECKPOINT_VERSION` bumped on
incompatible layout changes.  Wire frames carry no executable payload, so —
unlike the pickle files of earlier releases — checkpoints from untrusted
sources can at worst fail to load, not run code.  Loading a file with an
unknown format, version, corruption or truncation raises
:class:`CheckpointError` instead of resuming with garbage.

Pickle checkpoints written before the wire format are recognised by their
first byte and rejected with a :class:`CheckpointError` that says so:
unpickling executes arbitrary code, so no build loads them any more.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..streaming.protocol import DistributedProtocol
from ..utils.stateio import StateError, restore_object
from ..wire import (
    WireDecodeError,
    is_wire_data,
    pack_frame,
    unpack_frame,
    write_frame,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "save_tracker",
    "load_tracker",
    "save_protocol",
    "load_protocol",
    "tracker_payload",
    "tracker_from_payload",
    "tracker_frame",
    "tracker_from_frame",
]

#: Bump on incompatible changes to the checkpoint payload layout.
CHECKPOINT_VERSION = 1

_TRACKER_FORMAT = "repro/tracker-checkpoint"
_PROTOCOL_FORMAT = "repro/protocol-checkpoint"

#: Frame kind for one shard's tracker payload inside cluster transport.
TRACKER_PAYLOAD_KIND = "repro/tracker-payload"

#: First byte of every pickle protocol ≥ 2 stream (the PROTO opcode).
_PICKLE_PROTO_OPCODE = b"\x80"

PathLike = Union[str, Path]


class CheckpointError(ValueError):
    """A checkpoint file cannot be loaded by this build."""


def _write(path: PathLike, payload: Dict[str, Any], *,
           compress: bool = True) -> None:
    """Write ``payload`` (with its ``format``/``version`` keys) as one frame."""
    body = dict(payload)
    write_frame(path, body.pop("format"), body, compress=compress)


def _read(path: PathLike, expected_format: str,
          expected_version: int = CHECKPOINT_VERSION,
          retired: Optional[Dict[int, str]] = None) -> Dict[str, Any]:
    """Read one checkpoint frame; ``retired`` says why old versions are refused."""
    with open(Path(path), "rb") as handle:
        data = handle.read()
    if data[:1] == _PICKLE_PROTO_OPCODE:
        raise CheckpointError(
            f"{path!s} is a pre-wire pickle checkpoint; loading one executes "
            "arbitrary code, so this build refuses it (load and re-save it "
            "with the release that wrote it to upgrade to the wire format)"
        )
    if not is_wire_data(data):
        raise CheckpointError(f"{path!s} is not a {expected_format!r} checkpoint")
    try:
        kind, payload = unpack_frame(data)
    except WireDecodeError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!s}: {exc}"
        ) from exc
    if kind != expected_format:
        raise CheckpointError(
            f"{path!s} is a {kind!r} frame, not a {expected_format!r} "
            "checkpoint"
        )
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path!s} is not a {expected_format!r} checkpoint")
    version = payload.get("version")
    if version != expected_version:
        why = (retired or {}).get(version)
        raise CheckpointError(
            f"checkpoint {path!s} has version {version!r}; this build "
            f"supports version {expected_version}"
            + (f" ({why})" if why else "")
        )
    return payload


# ------------------------------------------------------------------ trackers
def tracker_payload(tracker: Any) -> Dict[str, Any]:
    """Capture one tracker session as a checkpoint payload dictionary.

    The payload is the format-agnostic inner part of a tracker checkpoint
    (spec, params, chunk size, partitioner and protocol states); the cluster
    layer embeds one payload per shard inside its own versioned file.
    ``copy_data=False``: the snapshots reference live state and must be
    serialized (encoded into a wire frame) before the tracker runs on.
    """
    from .tracker import Tracker

    if not isinstance(tracker, Tracker):
        raise TypeError(f"expected a Tracker, got {type(tracker).__name__}")
    return {
        "spec": tracker.spec,
        "params": tracker.params,
        "chunk_size": tracker.chunk_size,
        "partitioner": tracker.partitioner.get_state(copy_data=False),
        "protocol": tracker.protocol.get_state(copy_data=False),
    }


def tracker_from_payload(payload: Dict[str, Any], source: str = "payload") -> Any:
    """Rebuild a tracker session from a :func:`tracker_payload` dictionary."""
    from .tracker import Tracker

    try:
        # copy_data=False: the deserialized payload is owned solely by us.
        protocol = restore_object(payload["protocol"], copy_data=False)
        partitioner = restore_object(payload["partitioner"], copy_data=False)
    except (StateError, KeyError, TypeError) as exc:
        raise CheckpointError(f"cannot restore {source}: {exc}") from exc
    return Tracker(
        protocol,
        spec=payload.get("spec"),
        params=payload.get("params") or {},
        chunk_size=payload["chunk_size"],  # None means per-item dispatch
        partitioner=partitioner,
    )


def tracker_frame(tracker: Any, *, compress: bool = False) -> bytes:
    """Snapshot one tracker session as a standalone wire frame.

    This is the shard-transport form of :func:`tracker_payload`: the cluster
    layer calls it *on the worker* so each shard serializes its own state in
    parallel, and the caller embeds the resulting frames in the cluster
    checkpoint without re-encoding them.  ``compress`` compresses the
    frame as checkpoints are (float arrays raw in a section, the rest of
    the tree deflated); the cluster's checkpoint frames use it, and
    same-host pipes leave it off, where the copy is cheaper.
    """
    return pack_frame(TRACKER_PAYLOAD_KIND, tracker_payload(tracker),
                      compress=compress)


def tracker_from_frame(data: bytes, source: str = "payload frame") -> Any:
    """Rebuild a tracker session from a :func:`tracker_frame` blob."""
    try:
        _, payload = unpack_frame(data, expected_kind=TRACKER_PAYLOAD_KIND)
    except WireDecodeError as exc:
        raise CheckpointError(f"cannot restore {source}: {exc}") from exc
    return tracker_from_payload(payload, source=source)


def save_tracker(tracker: Any, path: PathLike, *,
                 compress: bool = True) -> None:
    """Write a full session checkpoint for ``tracker`` to ``path``.

    ``compress`` (default on) compresses the frame
    (:func:`~repro.wire.frames.pack_frame`); loading needs no flag, and
    plain uncompressed checkpoints from earlier builds keep loading
    unchanged.
    """
    # copy_data=False snapshots go straight into the frame encoder, which is
    # itself a point-in-time serialisation — no defensive deep copy needed.
    payload = tracker_payload(tracker)
    payload["format"] = _TRACKER_FORMAT
    payload["version"] = CHECKPOINT_VERSION
    _write(path, payload, compress=compress)


def load_tracker(path: PathLike) -> Any:
    """Restore a session checkpointed by :func:`save_tracker`."""
    return tracker_from_payload(_read(path, _TRACKER_FORMAT),
                                source=str(path))


# ----------------------------------------------------------------- protocols
def save_protocol(protocol: DistributedProtocol, path: PathLike, *,
                  compress: bool = True) -> None:
    """Checkpoint a bare protocol (no session metadata) to ``path``.

    ``compress`` behaves as in :func:`save_tracker`.
    """
    if not isinstance(protocol, DistributedProtocol):
        raise TypeError(
            f"expected a DistributedProtocol, got {type(protocol).__name__}"
        )
    _write(path, {
        "format": _PROTOCOL_FORMAT,
        "version": CHECKPOINT_VERSION,
        "protocol": protocol.get_state(copy_data=False),
    }, compress=compress)


def load_protocol(path: PathLike) -> DistributedProtocol:
    """Restore a protocol checkpointed by :func:`save_protocol`."""
    payload = _read(path, _PROTOCOL_FORMAT)
    try:
        return restore_object(payload["protocol"], copy_data=False)
    except (StateError, KeyError, TypeError) as exc:
        raise CheckpointError(f"cannot restore {path!s}: {exc}") from exc
