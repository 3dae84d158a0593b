"""Checkpoint/restore for tracker sessions and raw protocols.

Long-running continuous-tracking sessions need to survive process restarts:
``tracker.save(path)`` writes a versioned checkpoint and
``Tracker.load(path)`` resumes it **bit-identically** — the same messages,
the same seeded RNG draws and the same query answers as a session that
never stopped.

A checkpoint is declared plain data, not an object graph.  A protocol is
``{"spec", "params", "state_version", "state"}``: the registry spec and
parameters it was built from (its ``build_spec``; a seed that is a
``Generator`` or ``SeedSequence`` is recorded as ``None``, because the
generators it seeded are restored from their states), its class's layout
version and its declared ``state_dict``.  A session adds its own spec and
parameters, the engine chunk size and the partitioner's declared state.
Restoring is ``repro.create(spec, **params)`` followed by
``load_state_dict``; nothing in a checkpoint names a class, so renaming a
private attribute changes no checkpoint byte.

File format: one :mod:`repro.wire` frame whose kind labels the checkpoint
flavour (``repro/tracker-checkpoint`` / ``repro/protocol-checkpoint``) and
whose body carries ``"version"`` :data:`CHECKPOINT_VERSION`.  An unknown
format, version, corruption or truncation raises :class:`CheckpointError`
instead of resuming with garbage.  Version-1 files (the retired object
format) go through :mod:`repro.api.legacy`.  Pickle checkpoints written
before the wire format are recognised by their first byte and refused:
unpickling executes arbitrary code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..streaming.partition import restore_partitioner
from ..streaming.protocol import DistributedProtocol
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
    "protocol_state",
    "restore_protocol",
    "tracker_payload",
    "tracker_from_payload",
    "tracker_frame",
    "tracker_from_frame",
]

#: Bump on incompatible changes to the checkpoint payload layout (2: declared
#: plain state; version 1 stored instance dictionaries as objects).
CHECKPOINT_VERSION = 2

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


def _unpack(data: bytes, expected_kind: str, source: str,
            expected_version: int = CHECKPOINT_VERSION,
            retired: Optional[Dict[int, str]] = None) -> Dict[str, Any]:
    """The payload of a checkpoint frame of ``expected_kind`` and version;
    ``retired`` says why old versions are refused.  A frame in the retired
    object format is upgraded by :mod:`repro.api.legacy`, or refused."""
    try:
        kind, payload = unpack_frame(data)
    except WireDecodeError:
        from . import legacy

        try:
            kind, payload = legacy.read_legacy(data)
        except WireDecodeError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {source}: {exc}") from exc
        payload = legacy.upgrade(payload, CHECKPOINT_VERSION, source)
    if kind != expected_kind:
        raise CheckpointError(
            f"{source} is a {kind!r} frame, not a {expected_kind!r} "
            "checkpoint")
    if not isinstance(payload, dict):
        raise CheckpointError(f"{source} is not a {expected_kind!r} checkpoint")
    version = payload.get("version")
    if version != expected_version:
        why = (retired or {}).get(version)
        raise CheckpointError(
            f"checkpoint {source} has version {version!r}; this build "
            f"supports version {expected_version}"
            + (f" ({why})" if why else ""))
    return payload


def _read(path: PathLike, expected_format: str,
          expected_version: int = CHECKPOINT_VERSION,
          retired: Optional[Dict[int, str]] = None) -> Dict[str, Any]:
    """Read one checkpoint file (:func:`_unpack`'s arguments)."""
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
    return _unpack(data, expected_format, str(path), expected_version,
                   retired)


def _plain_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """Spec parameters as plain values: NumPy scalars as Python numbers, a
    seed that is not an integer as ``None``."""
    plain = {}
    for name, value in params.items():
        if isinstance(value, np.generic):
            value = value.item()
        if name == "seed" and not isinstance(value, int):
            value = None
        if value is not None and type(value) not in (bool, int, float, str):
            raise TypeError(f"parameter {name}={value!r} is not plain data "
                            "and cannot be checkpointed")
        plain[name] = value
    return plain


# ----------------------------------------------------------------- protocols
def protocol_state(protocol: DistributedProtocol) -> Dict[str, Any]:
    """``protocol``'s checkpoint (module docstring); it references live
    arrays, so encode it before the protocol runs on."""
    if getattr(protocol, "build_spec", None) is None:
        raise TypeError(
            f"this {type(protocol).__name__} was not built from a registry "
            "spec, so a checkpoint could not rebuild it; build it with "
            "repro.create")
    spec, params = protocol.build_spec
    return {"spec": spec, "params": _plain_params(params),
            "state_version": type(protocol).state_version,
            "state": protocol.state_dict()}


def restore_protocol(checkpoint: Any, source: str = "payload"
                     ) -> DistributedProtocol:
    """Rebuild a protocol from :func:`protocol_state`'s tree."""
    from .registry import create

    try:
        protocol = create(checkpoint["spec"], **checkpoint["params"])
        version = checkpoint["state_version"]
        if version != type(protocol).state_version:
            raise CheckpointError(
                f"cannot restore {source}: {type(protocol).__name__} state "
                f"version {version!r}; this build expects "
                f"{type(protocol).state_version}")
        protocol.load_state_dict(checkpoint["state"])
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"cannot restore {source}: {exc!r}") from exc
    return protocol


def save_protocol(protocol: DistributedProtocol, path: PathLike, *,
                  compress: bool = True) -> None:
    """Checkpoint a bare protocol (no session metadata) to ``path``.

    ``compress`` behaves as in :func:`save_tracker`.
    """
    _write(path, {"format": _PROTOCOL_FORMAT, "version": CHECKPOINT_VERSION,
                  "protocol": protocol_state(protocol)}, compress=compress)


def load_protocol(path: PathLike) -> DistributedProtocol:
    """Restore a protocol checkpointed by :func:`save_protocol`."""
    payload = _read(path, _PROTOCOL_FORMAT)
    return restore_protocol(payload.get("protocol"), source=str(path))


# ------------------------------------------------------------------ trackers
def tracker_payload(tracker: Any) -> Dict[str, Any]:
    """One tracker session's checkpoint payload (module docstring): what a
    tracker checkpoint file holds, and the cluster layer one frame of per
    shard.  It references live arrays: encode it before the tracker runs
    on."""
    from .tracker import Tracker

    if not isinstance(tracker, Tracker):
        raise TypeError(f"expected a Tracker, got {type(tracker).__name__}")
    return {
        "version": CHECKPOINT_VERSION,
        "spec": tracker.spec,
        "params": _plain_params(tracker.params),
        "chunk_size": tracker.chunk_size,
        "partitioner": tracker.partitioner.state_dict(),
        "protocol": protocol_state(tracker.protocol),
    }


def tracker_from_payload(payload: Dict[str, Any], source: str = "payload") -> Any:
    """Rebuild a tracker session from a :func:`tracker_payload` dictionary."""
    from .tracker import Tracker

    protocol = restore_protocol(payload.get("protocol"), source)
    try:
        partitioner = restore_partitioner(protocol.num_sites,
                                          payload["partitioner"])
        return Tracker(protocol, spec=payload["spec"],
                       params=payload["params"],
                       chunk_size=payload["chunk_size"],  # None: per item
                       partitioner=partitioner)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"cannot restore {source}: {exc!r}") from exc


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
    return tracker_from_payload(_unpack(data, TRACKER_PAYLOAD_KIND, source),
                                source=source)


def save_tracker(tracker: Any, path: PathLike, *,
                 compress: bool = True) -> None:
    """Write a full session checkpoint for ``tracker`` to ``path``.

    ``compress`` (default on) compresses the frame
    (:func:`~repro.wire.frames.pack_frame`); loading needs no flag, and
    uncompressed checkpoints load alike.
    """
    _write(path, {"format": _TRACKER_FORMAT, **tracker_payload(tracker)},
           compress=compress)


def load_tracker(path: PathLike) -> Any:
    """Restore a session checkpointed by :func:`save_tracker`."""
    return tracker_from_payload(_read(path, _TRACKER_FORMAT),
                                source=str(path))
