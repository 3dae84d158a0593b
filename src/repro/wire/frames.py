"""Framed containers for wire payloads: files, pipes and sockets.

A *frame* wraps one encoded value tree in a self-describing envelope::

    offset  size  field
    ------  ----  -----------------------------------------------------------
    0       4     magic ``b"RPW1"``
    4       2     wire format version (little-endian u16, 1 or 2)
    6       2     flags (version 1: reserved, 0; version 2: see below)
    8       2     kind length ``k`` (little-endian u16)
    10      k     kind — a UTF-8 payload label, e.g.
                  ``repro/tracker-checkpoint`` or ``repro/worker-command``
    10+k    8     body length ``n`` (little-endian u64) — the *stored* body
    18+k    n     body — one :func:`~repro.wire.codec.encode_value` payload
                  (the value tree), zlib-deflated when flag 0x0001 is set;
                  with flag 0x0002 the body is instead a u64 tree length
                  ``t``, the ``t``-byte (possibly deflated) tree and a raw
                  array section
    18+k+n  4     CRC-32 of the stored body bytes (little-endian u32)

    The ``kind`` string plays the role pickle's class tag used to play for
    checkpoint files: readers state which payload they expect and get a
    :class:`~repro.wire.codec.WireDecodeError` naming both kinds on a
    mismatch, instead of resuming with a wrong-but-parseable payload.

Version negotiation is one-directional and carried by the version field:
writers stamp the *lowest* version that can express a frame — plain frames
stay version 1 bit-for-bit, and only frames that use a version-2 feature
(a deflated tree, a raw array section, or an array sink that may leave
shared-memory array tags in the codec) are stamped 2.  Readers of this build
accept both; a version-1-only reader rejects a version-2 frame cleanly by
its header instead of misparsing the body.  Version-2 flags: bit 0x0001
marks a zlib-deflated value tree (inflation is bounded, so a corrupted or
hostile length cannot force a huge allocation); bit 0x0002 marks a raw
array section after the tree.  The CRC covers the whole stored body.
Unknown flag bits are rejected, and a plain (untrusted-peer) reader refuses
both flags.

``compress=True`` deflates only what compresses.  Float64 arrays of at
least :data:`~repro.wire.codec.MIN_OUT_OF_BAND_BYTES` leave the tree for
the raw section through the codec's out-of-band array reference, under
three rules decided from the array's bits (:class:`_SectionWriter`): an
array that is at least half zeros stays in the tree; a bitwise-symmetric
square is stored as its upper triangle; any other 2-D array is stored
without its trailing all-zero rows.  The rest of the tree is deflated.
Uncompressed frames are unaffected.

Stream transport (pipes, TCP sockets) prefixes the whole frame with a
little-endian u64 length so the receiver can read exactly one frame without
parsing the variable-length header first; :func:`send_frame` /
:func:`recv_frame` implement that over any socket-like object.
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from .codec import (
    MIN_OUT_OF_BAND_BYTES,
    WireDecodeError,
    _Decoder,
    decode_value,
    encode_value,
)

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WIRE_BASE_VERSION",
    "is_wire_data",
    "pack_frame",
    "unpack_frame",
    "peek_kind",
    "read_frame",
    "write_frame",
    "send_frame",
    "recv_frame",
]

WIRE_MAGIC = b"RPW1"

#: Highest wire version this build writes and reads.  Bump on incompatible
#: changes to the frame layout or the codec tag set.
WIRE_VERSION = 2

#: The version stamped on frames that use no post-v1 feature, so they stay
#: readable by version-1-only builds.
WIRE_BASE_VERSION = 1

_SUPPORTED_VERSIONS = (WIRE_BASE_VERSION, WIRE_VERSION)

#: Version-2 flag: the value tree is zlib-deflated (level 6, zlib's
#: default; level 1 is no faster on the trees left once the float arrays
#: have moved to the raw section).
_FLAG_DEFLATE = 0x0001
_DEFLATE_LEVEL = 6
#: Version-2 flag: the body is a u64 tree length, the value tree and a raw
#: section holding the float64 arrays the tree references.
_FLAG_SECTION = 0x0002
_KNOWN_FLAGS = _FLAG_DEFLATE | _FLAG_SECTION

#: Section reference forms: the whole array, the upper triangle of a
#: bitwise-symmetric square, or the leading rows before all-zero ones.
_FULL, _TRIANGLE, _ROWS = 0, 1, 2
_FLOAT64 = np.dtype("<f8")

_FIXED_HEADER = struct.Struct("<4sHHH")   # magic, version, flags, kind length
_BODY_LENGTH = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_STREAM_PREFIX = struct.Struct("<Q")

#: Upper bound for one streamed frame (defensive: a corrupted length prefix
#: must not make a worker allocate petabytes).
MAX_STREAM_FRAME = 1 << 40

PathLike = Union[str, Path]


def is_wire_data(data: bytes) -> bool:
    """True when ``data`` starts like a wire frame (used to detect legacy
    pickle checkpoints without attempting to parse them)."""
    return bytes(data[:4]) == WIRE_MAGIC


@lru_cache(maxsize=32)
def _upper(size: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(size)


class _SectionWriter:
    """The codec ``array_sink`` of a compressed frame: float64 arrays of at
    least :data:`~repro.wire.codec.MIN_OUT_OF_BAND_BYTES` go raw into the
    section, under three rules decided from the array's bits, in order:

    1. at least half of the elements are zero: decline (the deflated tree
       stores it smaller);
    2. a bitwise-symmetric square: store the upper triangle;
    3. any other 2-D array: drop the trailing rows whose bytes are all zero.
    """

    def __init__(self) -> None:
        self.parts: List[bytes] = []
        self.size = 0

    def sink(self, array: np.ndarray) -> Optional[Tuple[int, int, int, int]]:
        if array.dtype != _FLOAT64 or array.nbytes < MIN_OUT_OF_BAND_BYTES:
            return None
        words = array.view(np.uint64)
        if 2 * np.count_nonzero(words) <= words.size:
            return None
        form, rows, data = _FULL, array.shape[0], array
        if array.ndim == 2:
            if rows == array.shape[1] and np.array_equal(words, words.T):
                form, data = _TRIANGLE, array[_upper(rows)]
            else:
                # Not all rows are zero: rule 1 declined those arrays.
                last = int(np.flatnonzero(words.any(axis=1))[-1])
                if last + 1 < rows:
                    form, rows, data = _ROWS, last + 1, array[:last + 1]
        payload = data.tobytes()
        start = self.size
        self.parts.append(payload)
        self.size += len(payload)
        return (form, rows, start, len(payload))


class _SectionReader:
    """The codec ``array_source`` of a sectioned frame: validates every
    reference before allocating, and returns owned, writable arrays."""

    def __init__(self, section: memoryview) -> None:
        self.section = section

    def take(self, dtype: np.dtype, shape: tuple, reference: Any
             ) -> np.ndarray:
        if (type(reference) is not tuple or len(reference) != 4
                or any(type(field) is not int for field in reference)):
            raise WireDecodeError(
                f"malformed array section reference {reference!r}")
        form, rows, start, length = reference
        if dtype != _FLOAT64 or not shape:
            raise WireDecodeError(
                f"an array section holds float64 arrays of rank 1 or more, "
                f"not {dtype.str} of shape {shape}")
        if form not in (_FULL, _TRIANGLE, _ROWS):
            raise WireDecodeError(f"unknown array section form {form}")
        if (form != _FULL and len(shape) != 2
                or form == _TRIANGLE and shape[0] != shape[1]):
            raise WireDecodeError(
                f"array section form {form} does not fit shape {shape}")
        if not 0 <= rows <= shape[0] or form != _ROWS and rows != shape[0]:
            raise WireDecodeError(
                f"array section row count {rows} does not fit shape {shape}")
        width = 1
        for dim in shape[1:]:
            width *= dim
        count = rows * (rows + 1) // 2 if form == _TRIANGLE else rows * width
        if length != count * _FLOAT64.itemsize:
            raise WireDecodeError(
                f"array section length {length} does not match shape "
                f"{shape} (expected {count * _FLOAT64.itemsize})")
        if start < 0 or start + length > len(self.section):
            raise WireDecodeError(
                f"array section range {start}+{length} lies outside the "
                f"{len(self.section)}-byte section")
        data = np.frombuffer(self.section, dtype=_FLOAT64, count=count,
                             offset=start)
        if form == _FULL:
            return data.reshape(shape).copy()
        if form == _TRIANGLE:
            array = np.empty(shape, dtype=_FLOAT64)
            upper = _upper(rows)
            array[upper] = data
            array.T[upper] = data
            return array
        array = np.zeros(shape, dtype=_FLOAT64)
        array[:rows] = data.reshape(rows, width)
        return array


def pack_frame(kind: str, value: Any, *, compress: bool = False,
               array_sink: Optional[Any] = None, plain: bool = False) -> bytes:
    """Encode ``value`` and wrap it in a framed envelope labelled ``kind``.

    ``compress`` moves float64 arrays into a raw section
    (:class:`_SectionWriter`) and deflates the rest of the value tree
    (skipped when deflate does not shrink it).  ``array_sink`` and ``plain``
    are forwarded to :func:`~repro.wire.codec.encode_value`; with either,
    ``compress`` only deflates.  A frame with a flag set or written through
    an ``array_sink`` is stamped wire version 2; any other stays version 1,
    byte-identical to earlier builds.
    """
    kind_bytes = kind.encode("utf-8")
    if len(kind_bytes) > 0xFFFF:
        raise ValueError("frame kind label too long")
    section = (_SectionWriter() if compress and array_sink is None
               and not plain else None)
    body = encode_value(
        value, array_sink=array_sink if section is None else section.sink,
        plain=plain)
    flags = 0
    if compress:
        deflated = zlib.compress(body, _DEFLATE_LEVEL)
        if len(deflated) < len(body):
            body = deflated
            flags |= _FLAG_DEFLATE
    if section is not None and section.parts:
        flags |= _FLAG_SECTION
        body = b"".join((_BODY_LENGTH.pack(len(body)), body, *section.parts))
    version = WIRE_VERSION if flags or array_sink is not None \
        else WIRE_BASE_VERSION
    return _envelope(kind_bytes, version, flags, body)


def _envelope(kind_bytes: bytes, version: int, flags: int, body: bytes
              ) -> bytes:
    return b"".join((
        _FIXED_HEADER.pack(WIRE_MAGIC, version, flags, len(kind_bytes)),
        kind_bytes,
        _BODY_LENGTH.pack(len(body)),
        body,
        _CRC.pack(zlib.crc32(body)),
    ))


def pack_raw_frame(kind: str, body: bytes, *, compress: bool = False) -> bytes:
    """Wrap an already laid-out ``body`` in the envelope, with no codec.

    For frame kinds whose body is a fixed byte layout rather than a value
    tree (the worker protocol's ``ingest`` command).  ``compress`` deflates
    the body when that shrinks it (flag 0x0001, version 2); the frame is
    otherwise stamped version 1.
    """
    kind_bytes = kind.encode("utf-8")
    flags = 0
    if compress:
        deflated = zlib.compress(body, _DEFLATE_LEVEL)
        if len(deflated) < len(body):
            body, flags = deflated, _FLAG_DEFLATE
    return _envelope(kind_bytes, WIRE_VERSION if flags else WIRE_BASE_VERSION,
                     flags, body)


def unpack_raw_frame(data: bytes, expected_kind: str) -> Any:
    """The body of a :func:`pack_raw_frame` frame of ``expected_kind``.

    Checks the envelope as :func:`unpack_frame` does and inflates a
    deflated body; a raw array section (flag 0x0002) is refused, because
    raw bodies have none.  Returns the body bytes (a memoryview when the
    body was stored plain).
    """
    kind, flags, body = _open_envelope(data)
    if kind != expected_kind:
        raise WireDecodeError(
            f"expected a {expected_kind!r} frame, got {kind!r}")
    if flags & _FLAG_SECTION:
        raise WireDecodeError(
            f"a {kind!r} frame has a raw body and no array section")
    return _inflate_body(body) if flags & _FLAG_DEFLATE else body


def _inflate_body(body: memoryview) -> bytes:
    """Bounded whole-body inflate: output is capped at the stream limit and
    the deflate stream must end exactly at the body boundary."""
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(bytes(body), MAX_STREAM_FRAME)
    except zlib.error as exc:
        raise WireDecodeError(f"corrupt deflated frame body: {exc}") from exc
    if not inflater.eof or inflater.unconsumed_tail or inflater.unused_data:
        raise WireDecodeError(
            "deflated frame body is truncated or oversized"
        )
    return data


def unpack_frame(data: bytes, expected_kind: Optional[str] = None, *,
                 array_source: Optional[Any] = None,
                 plain: bool = False, decoder: type = _Decoder
                 ) -> Tuple[str, Any]:
    """Parse one frame; returns ``(kind, value)``.

    Accepts wire versions 1 and 2 (plain, deflated and sectioned bodies
    alike).  Raises :class:`WireDecodeError` on anything that is not a
    complete, uncorrupted frame of a supported version: wrong magic,
    version skew, unknown flags, truncated header/body, body-length
    mismatch, CRC mismatch, or (when ``expected_kind`` is given) a kind
    mismatch.  ``array_source`` resolves shared-memory array references in
    the body; a sectioned frame resolves its own from its section.
    ``plain`` is the mode for untrusted peers: the body must be plain data
    (:func:`~repro.wire.codec.decode_value`) and a frame with any flag set
    is refused before anything is inflated.  ``decoder`` is the decoding
    pass (the legacy checkpoint reader brings its own).
    """
    kind, flags, body = _open_envelope(data)
    if plain and flags:
        raise WireDecodeError(
            "deflated or sectioned wire frames are not accepted here; send "
            "the body uncompressed"
        )
    if expected_kind is not None and kind != expected_kind:
        raise WireDecodeError(
            f"expected a {expected_kind!r} frame, got {kind!r}"
        )
    tree = body
    if flags & _FLAG_SECTION:
        tree, section = _split_body(body)
        array_source = _SectionReader(section).take
    if flags & _FLAG_DEFLATE:
        tree = _inflate_body(tree)
    return kind, decode_value(tree, array_source=array_source, plain=plain,
                              decoder=decoder)


def _open_envelope(data: bytes) -> Tuple[str, int, memoryview]:
    """Check one frame's envelope; returns ``(kind, flags, stored body)``.

    Raises :class:`WireDecodeError` on wrong magic, version skew, unknown
    flags, a truncated header or body, a body-length mismatch or a CRC
    mismatch.
    """
    view = memoryview(data)
    if len(view) < _FIXED_HEADER.size:
        raise WireDecodeError(
            f"truncated wire frame: {len(view)} bytes is shorter than the "
            f"{_FIXED_HEADER.size}-byte header"
        )
    magic, version, flags, kind_length = _FIXED_HEADER.unpack(
        view[:_FIXED_HEADER.size])
    if magic != WIRE_MAGIC:
        raise WireDecodeError(
            f"not a wire frame: magic {bytes(magic)!r} != {WIRE_MAGIC!r}"
        )
    if version not in _SUPPORTED_VERSIONS:
        raise WireDecodeError(
            f"wire format version {version} is not supported by this build "
            f"(expected version {WIRE_BASE_VERSION} or {WIRE_VERSION})"
        )
    known = _KNOWN_FLAGS if version >= WIRE_VERSION else 0
    if flags & ~known:
        raise WireDecodeError(
            f"wire frame carries unknown flags 0x{flags:04X} for version "
            f"{version}"
        )
    offset = _FIXED_HEADER.size
    if len(view) < offset + kind_length + _BODY_LENGTH.size:
        raise WireDecodeError("truncated wire frame: header cut short")
    try:
        kind = bytes(view[offset:offset + kind_length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireDecodeError("wire frame kind label is not UTF-8") from exc
    offset += kind_length
    (body_length,) = _BODY_LENGTH.unpack(view[offset:offset + _BODY_LENGTH.size])
    offset += _BODY_LENGTH.size
    if len(view) != offset + body_length + _CRC.size:
        raise WireDecodeError(
            f"wire frame length mismatch: header promises a {body_length}-byte "
            f"body but {len(view) - offset - _CRC.size} bytes follow"
        )
    body = view[offset:offset + body_length]
    (crc,) = _CRC.unpack(view[offset + body_length:])
    if zlib.crc32(body) != crc:
        raise WireDecodeError("wire frame CRC mismatch: the body is corrupted")
    return kind, flags, body


def _split_body(body: memoryview) -> Tuple[memoryview, memoryview]:
    """A sectioned body's value tree and raw array section."""
    if len(body) < _BODY_LENGTH.size:
        raise WireDecodeError("sectioned frame body has no tree length")
    (tree_length,) = _BODY_LENGTH.unpack(body[:_BODY_LENGTH.size])
    if tree_length > len(body) - _BODY_LENGTH.size:
        raise WireDecodeError(
            f"tree length {tree_length} overruns the {len(body)}-byte "
            "frame body")
    end = _BODY_LENGTH.size + tree_length
    return body[_BODY_LENGTH.size:end], body[end:]


def peek_kind(data: bytes) -> Optional[str]:
    """Read a frame's kind label from the header alone (no body decode).

    Used by the worker protocol to learn *which command* an undecodable
    frame carried — i.e. whether the peer is waiting for a reply — without
    touching the (possibly hostile) body.  Returns ``None`` when even the
    header is unreadable.
    """
    view = memoryview(data)
    if len(view) < _FIXED_HEADER.size:
        return None
    magic, version, _flags, kind_length = _FIXED_HEADER.unpack(
        view[:_FIXED_HEADER.size])
    if magic != WIRE_MAGIC or version not in _SUPPORTED_VERSIONS:
        return None
    if len(view) < _FIXED_HEADER.size + kind_length:
        return None
    try:
        return bytes(view[_FIXED_HEADER.size:
                          _FIXED_HEADER.size + kind_length]).decode("utf-8")
    except UnicodeDecodeError:
        return None


# ------------------------------------------------------------------- files
def write_frame(path: PathLike, kind: str, value: Any, *,
                compress: bool = False) -> None:
    """Write one frame to ``path`` (atomic enough for checkpoints: the frame
    is materialised first, so a full disk cannot leave a half-encoded tree)."""
    frame = pack_frame(kind, value, compress=compress)
    with open(Path(path), "wb") as handle:
        handle.write(frame)


def read_frame(path: PathLike, expected_kind: Optional[str] = None
               ) -> Tuple[str, Any]:
    """Read and parse the frame stored at ``path``."""
    with open(Path(path), "rb") as handle:
        data = handle.read()
    return unpack_frame(data, expected_kind=expected_kind)


# ----------------------------------------------------------------- streams
def send_frame(sock: Any, frame: bytes) -> None:
    """Ship one packed frame over a socket with a u64 length prefix."""
    sock.sendall(_STREAM_PREFIX.pack(len(frame)) + frame)


def _recv_exact(sock: Any, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({remaining} of {count} bytes "
                "outstanding)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: Any) -> bytes:
    """Receive one length-prefixed frame; raises ``ConnectionError``/``EOFError``
    when the peer has gone away cleanly (zero bytes at a frame boundary)."""
    prefix = sock.recv(_STREAM_PREFIX.size)
    if not prefix:
        raise EOFError("connection closed")
    while len(prefix) < _STREAM_PREFIX.size:
        more = sock.recv(_STREAM_PREFIX.size - len(prefix))
        if not more:
            raise ConnectionError("connection closed inside a frame prefix")
        prefix += more
    (length,) = _STREAM_PREFIX.unpack(prefix)
    if length > MAX_STREAM_FRAME:
        raise WireDecodeError(
            f"refusing a {length}-byte frame (corrupted length prefix?)"
        )
    return _recv_exact(sock, length)
