"""The pickle-free value codec: plain value trees ⇄ tagged binary.

Checkpoints, shard transport and the gateway's wire bodies serialize value
trees — dicts, lists, tuples and frozensets, NumPy arrays and scalars,
numbers, strings and bytes — in a recursive, self-describing, tag-based
binary format that carries **data only**.  No tag names a class, a
function, an enum or an exception, so decoding never imports a module or
builds anything but such values.  Components declare their checkpoints as
such trees (:mod:`repro.api.state`), and shard workers run only the
commands their own table declares (:mod:`repro.cluster.worker_protocol`).

Value fidelity contract (pinned by the round-trip property tests): every
value above round-trips **bit-identically** (ints at arbitrary precision:
PCG64 states are 128-bit).  The encoder writes a tree: a value reachable
twice is written twice, and a container that contains itself is a
:class:`WireEncodeError`.

An ``array_sink`` serves compressed frames (:mod:`repro.wire.frames`) and
the shared-memory backend: it may take an array out of band and leave a
reference (tag ``_SHMARRAY``) that the decoder's ``array_source`` resolves;
the sinks leave arrays under :data:`MIN_OUT_OF_BAND_BYTES` inline.

**Plain data** (``plain=True``) is the subset for peers that are not this
program's own processes, such as HTTP clients of the serving gateway: None,
bool, int, float, str, bytes, list, tuple, dict and ``float64`` / ``int64``
/ ``bool`` arrays.  A plain decoder refuses every other tag by name before
reading its payload, and a plain encoder writes NumPy scalars as the Python
numbers they hold.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Optional

import numpy as np

__all__ = [
    "MIN_OUT_OF_BAND_BYTES",
    "PLAIN_DTYPES",
    "WireError",
    "WireEncodeError",
    "WireDecodeError",
    "encode_value",
    "decode_value",
]


class WireError(ValueError):
    """Base class for wire-format failures."""


class WireEncodeError(WireError):
    """A value cannot be represented in the wire format."""


class WireDecodeError(WireError):
    """A byte sequence is not a valid wire payload for this build."""


# --------------------------------------------------------------------- tags
_NONE = 0x00
_TRUE = 0x01
_FALSE = 0x02
_INT64 = 0x03
_BIGINT = 0x04
_FLOAT = 0x05
_COMPLEX = 0x06
_STR = 0x07
_BYTES = 0x08
_LIST = 0x0A
_TUPLE = 0x0B
_FROZENSET = 0x0D
_DICT = 0x0E
_ARRAY = 0x0F
_OBJARRAY = 0x10
_NPSCALAR = 0x11
_SHMARRAY = 0x1C

#: Retired tags, by name: never reused, refused by every decoder here (only
#: repro.api.legacy reads the object-format ones, from old checkpoints).
_RETIRED = {
    0x09: "BYTEARRAY", 0x0C: "SET", 0x12: "NPGENERATOR", 0x13: "CLASS",
    0x14: "FUNCTION", 0x15: "OBJECT", 0x16: "ENUM", 0x17: "EXCEPTION",
    0x18: "REF", 0x19: "DTYPE", 0x1A: "NPTYPE", 0x1B: "PACKED",
    0x1D: "NUMDICT",
}

#: Tags outside plain data, by name (what a plain decoder's refusal says).
_NOT_PLAIN = {
    _COMPLEX: "COMPLEX", _FROZENSET: "FROZENSET", _OBJARRAY: "OBJARRAY",
    _NPSCALAR: "NPSCALAR", _SHMARRAY: "SHMARRAY",
}

#: Array dtypes plain data carries: float64, int64 and bool.
PLAIN_DTYPES = ("<f8", "<i8", "|b1")

#: Widest integer plain data carries, in bytes — about 2 500 decimal digits,
#: inside what ``json`` parses, so neither representation admits an integer
#: the other cannot render.
_PLAIN_BIGINT_BYTES = 1024

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: The array sinks (shared-memory rings, a compressed frame's raw section)
#: decline arrays smaller than this: a reference costs more than the bytes.
MIN_OUT_OF_BAND_BYTES = 1 << 10

_STRUCT_Q = struct.Struct("<q")
_STRUCT_D = struct.Struct("<d")
_STRUCT_DD = struct.Struct("<dd")


def _write_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Encoder:
    """One encoding pass: a byte buffer plus the cycle guard.

    ``array_sink`` diverts array payloads out of band (shared memory, a
    compressed frame's raw section), leaving an ``_SHMARRAY`` reference in
    the byte stream.  ``plain`` writes a tree a plain decoder accepts
    (module docstring).
    """

    def __init__(self, array_sink: Optional[Callable[[np.ndarray], Any]] = None,
                 plain: bool = False) -> None:
        self.out = bytearray()
        self._array_sink = array_sink
        self._plain = plain
        self._open: set = set()   # ids of the containers being written

    # ------------------------------------------------------------ primitives
    def _varint(self, value: int) -> None:
        _write_varint(self.out, value)

    def _str(self, text: str) -> None:
        data = text.encode("utf-8", errors="surrogatepass")
        self._varint(len(data))
        self.out += data

    # -------------------------------------------------------------- dispatch
    def encode(self, value: Any) -> None:
        out = self.out
        if value is None:
            out.append(_NONE)
        elif value is True:
            out.append(_TRUE)
        elif value is False:
            out.append(_FALSE)
        elif isinstance(value, np.generic):
            # Before int/float: np.float64 is a float subclass.
            if self._plain:
                self.encode(value.item())
            else:
                self._encode_npscalar(value)
        elif type(value) is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                out.append(_INT64)
                out += _STRUCT_Q.pack(value)
            else:
                out.append(_BIGINT)
                length = (value.bit_length() + 8) // 8
                self._varint(length)
                out += value.to_bytes(length, "little", signed=True)
        elif type(value) is float:
            out.append(_FLOAT)
            out += _STRUCT_D.pack(value)
        elif type(value) is str:
            out.append(_STR)
            self._str(value)
        elif isinstance(value, bytes):
            out.append(_BYTES)
            self._varint(len(value))
            out += value
        elif isinstance(value, np.ndarray):
            self._encode_array(value)
        elif isinstance(value, dict):
            self._encode_items(_DICT, value, value.items(), pairs=True)
        elif isinstance(value, list):
            self._encode_items(_LIST, value, value)
        elif isinstance(value, tuple):
            self._encode_items(_TUPLE, value, value)
        elif isinstance(value, frozenset):
            self._encode_items(_FROZENSET, value, sorted(value, key=repr))
        elif isinstance(value, complex):
            out.append(_COMPLEX)
            out += _STRUCT_DD.pack(value.real, value.imag)
        else:
            raise WireEncodeError(
                f"cannot encode a {type(value).__module__}."
                f"{type(value).__qualname__}: wire values are plain data "
                "(declare the object's state as a tree of containers, "
                "numbers, strings and arrays)"
            )

    # ------------------------------------------------------------- compounds
    def _encode_items(self, tag: int, container: Any, items: Any,
                      pairs: bool = False) -> None:
        """A container's tag, length and items, guarding against cycles."""
        identity = id(container)
        if identity in self._open:
            raise WireEncodeError(
                f"self-referential {type(container).__name__} cannot be "
                "encoded: wire values are trees")
        self._open.add(identity)
        try:
            self.out.append(tag)
            self._varint(len(container))
            if pairs:
                for key, item in items:
                    self.encode(key)
                    self.encode(item)
            else:
                for item in items:
                    self.encode(item)
        finally:
            self._open.discard(identity)

    def _encode_array(self, array: np.ndarray) -> None:
        if array.dtype.kind == "O":
            self.out.append(_OBJARRAY)
            self._varint(array.ndim)
            for dim in array.shape:
                self._varint(int(dim))
            for item in array.reshape(-1):
                self.encode(item)
            return
        if array.dtype.fields is not None or array.dtype.subdtype is not None:
            raise WireEncodeError(
                f"structured array dtype {array.dtype!r} is not supported"
            )
        if array.dtype.byteorder == ">":
            array = array.astype(array.dtype.newbyteorder("<"))
        contiguous = np.ascontiguousarray(array)
        if self._array_sink is not None:
            reference = self._array_sink(contiguous)
            if reference is not None:
                self.out.append(_SHMARRAY)
                self._str(array.dtype.str)
                self._varint(array.ndim)
                for dim in array.shape:
                    self._varint(int(dim))
                self.encode(reference)
                return
        data = contiguous.tobytes()
        self.out.append(_ARRAY)
        self._str(array.dtype.str)
        self._varint(array.ndim)
        for dim in array.shape:
            self._varint(int(dim))
        self._varint(len(data))
        self.out += data

    def _encode_npscalar(self, value: np.generic) -> None:
        dtype = value.dtype
        if dtype.kind == "O":  # pragma: no cover - no object scalars in repro
            raise WireEncodeError("object-dtype numpy scalar is not supported")
        if dtype.byteorder == ">":
            dtype = dtype.newbyteorder("<")
            value = value.astype(dtype)
        self.out.append(_NPSCALAR)
        self._str(dtype.str)
        data = value.tobytes()
        self._varint(len(data))
        self.out += data


class _Decoder:
    """One decoding pass over a payload buffer.

    ``array_source`` resolves ``_SHMARRAY`` out-of-band references (shared
    memory, a frame's raw section); without it such a payload raises
    :class:`WireDecodeError`.  ``handlers`` maps each tag this pass accepts
    to its reader.
    """

    def __init__(self, data: memoryview,
                 array_source: Optional[
                     Callable[[np.dtype, tuple, Any], np.ndarray]] = None,
                 plain: bool = False) -> None:
        self.data = data
        self.position = 0
        self.array_source = array_source
        self.plain = plain
        self.handlers = _PLAIN_DECODERS if plain else _DECODERS

    # ------------------------------------------------------------ primitives
    def _take(self, count: int) -> memoryview:
        end = self.position + count
        if end > len(self.data):
            raise WireDecodeError(
                f"truncated payload: wanted {count} bytes at offset "
                f"{self.position}, have {len(self.data) - self.position}"
            )
        chunk = self.data[self.position:end]
        self.position = end
        return chunk

    def _byte(self) -> int:
        """``_take(1)[0]`` without the one-byte view: tags and varints."""
        position = self.position
        if position >= len(self.data):
            raise WireDecodeError(
                f"truncated payload: wanted 1 bytes at offset {position}, "
                "have 0"
            )
        self.position = position + 1
        return self.data[position]

    def _varint(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self._byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise WireDecodeError("varint overflow")

    def _str(self) -> str:
        length = self._varint()
        return bytes(self._take(length)).decode("utf-8", errors="surrogatepass")

    # -------------------------------------------------------------- dispatch
    def decode(self) -> Any:
        tag = self._byte()
        handler = self.handlers.get(tag)
        if handler is None:
            name = _NOT_PLAIN.get(tag) or _RETIRED.get(tag)
            if name is None:
                raise WireDecodeError(f"unknown wire tag 0x{tag:02X}")
            if self.plain:
                raise WireDecodeError(
                    f"wire tag {name} (0x{tag:02X}) is not plain data: only "
                    "None, bool, int, float, str, bytes, list, tuple, dict "
                    "and float64/int64/bool arrays are accepted"
                )
            raise WireDecodeError(
                f"wire tag {name} (0x{tag:02X}) is retired: wire values are "
                "data and name no class, function or object")
        return handler(self)

    def _decode_dict(self) -> dict:
        result: dict = {}
        for _ in range(self._varint()):
            key = self.decode()
            result[key] = self.decode()
        return result

    def _decode_list(self) -> list:
        return [self.decode() for _ in range(self._varint())]

    def _dtype(self) -> np.dtype:
        token = self._str()
        if self.plain and token not in PLAIN_DTYPES:
            raise WireDecodeError(
                f"array dtype {token[:32]!r} is not plain data "
                f"(one of {', '.join(PLAIN_DTYPES)})"
            )
        try:
            return np.dtype(token)
        except (TypeError, ValueError) as exc:
            raise WireDecodeError(f"bad dtype token {token!r}") from exc

    def _shape(self) -> tuple:
        """Read a shape header, bounding the element count by the payload.

        Arithmetic is pure-Python (no int64 overflow) and the count is
        checked against the bytes actually remaining, so a corrupted or
        hostile header cannot request a petabyte allocation or sneak an
        overflowed-but-matching section length past validation.
        """
        ndim = self._varint()
        if ndim > 64:
            raise WireDecodeError(f"implausible array rank {ndim}")
        shape = tuple(self._varint() for _ in range(ndim))
        count = 1
        for dim in shape:
            count *= dim
        remaining = len(self.data) - self.position
        if count > remaining:
            raise WireDecodeError(
                f"array shape {shape} promises {count} elements but only "
                f"{remaining} payload bytes remain"
            )
        return shape

    def _decode_array(self) -> np.ndarray:
        dtype = self._dtype()
        shape = self._shape()
        length = self._varint()
        count = 1
        for dim in shape:
            count *= dim
        if length != count * dtype.itemsize:
            raise WireDecodeError(
                f"array section length {length} does not match dtype "
                f"{dtype.str} and shape {shape} "
                f"(expected {count * dtype.itemsize})"
            )
        data = self._take(length)
        # Copy: restored arrays must be writable and own their memory.
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()

    def _shape_out_of_band(self) -> tuple:
        """Read a shape header whose data does not sit inline in the payload
        (shared memory, a frame's raw section), so the remaining-bytes bound
        of :meth:`_shape` does not apply.  Length validation happens against
        the recovered data instead, *before* any element-count-sized
        allocation, so a hostile header still cannot force one."""
        ndim = self._varint()
        if ndim > 64:
            raise WireDecodeError(f"implausible array rank {ndim}")
        return tuple(self._varint() for _ in range(ndim))

    def _decode_shmarray(self) -> np.ndarray:
        dtype = self._dtype()
        shape = self._shape_out_of_band()
        reference = self.decode()
        if self.array_source is None:
            raise WireDecodeError(
                "payload carries an out-of-band array reference but no "
                "array source is attached to this decoder"
            )
        array = self.array_source(dtype, shape, reference)
        if (not isinstance(array, np.ndarray) or array.shape != shape
                or array.dtype != dtype):
            raise WireDecodeError(
                "array source returned a mismatched array for an "
                "out-of-band reference"
            )
        return array

    def _decode_objarray(self) -> np.ndarray:
        shape = self._shape()
        array = np.empty(shape, dtype=object)
        flat = array.reshape(-1)
        for index in range(flat.shape[0]):
            flat[index] = self.decode()
        return array

    def _decode_npscalar(self) -> np.generic:
        dtype = self._dtype()
        length = self._varint()
        if length != dtype.itemsize:
            raise WireDecodeError(
                f"scalar section length {length} does not match dtype "
                f"{dtype.str} (expected {dtype.itemsize})"
            )
        return np.frombuffer(self._take(length), dtype=dtype)[0]


_DECODERS: Dict[int, Callable[[_Decoder], Any]] = {
    _NONE: lambda d: None,
    _TRUE: lambda d: True,
    _FALSE: lambda d: False,
    _INT64: lambda d: _STRUCT_Q.unpack(d._take(8))[0],
    _BIGINT: lambda d: int.from_bytes(bytes(d._take(d._varint())), "little",
                                      signed=True),
    _FLOAT: lambda d: _STRUCT_D.unpack(d._take(8))[0],
    _COMPLEX: lambda d: complex(*_STRUCT_DD.unpack(d._take(16))),
    _STR: lambda d: d._str(),
    _BYTES: lambda d: bytes(d._take(d._varint())),
    _LIST: _Decoder._decode_list,
    _TUPLE: lambda d: tuple(d.decode() for _ in range(d._varint())),
    _FROZENSET: lambda d: frozenset(d.decode() for _ in range(d._varint())),
    _DICT: _Decoder._decode_dict,
    _ARRAY: _Decoder._decode_array,
    _OBJARRAY: _Decoder._decode_objarray,
    _NPSCALAR: _Decoder._decode_npscalar,
    _SHMARRAY: _Decoder._decode_shmarray,
}


def _decode_plain_bigint(decoder: _Decoder) -> int:
    length = decoder._varint()
    if length > _PLAIN_BIGINT_BYTES:
        raise WireDecodeError(
            f"a {length}-byte integer exceeds plain data's "
            f"{_PLAIN_BIGINT_BYTES}-byte limit"
        )
    return int.from_bytes(bytes(decoder._take(length)), "little", signed=True)


_PLAIN_DECODERS: Dict[int, Callable[[_Decoder], Any]] = {
    tag: handler for tag, handler in _DECODERS.items() if tag not in _NOT_PLAIN
}
_PLAIN_DECODERS[_BIGINT] = _decode_plain_bigint


def encode_value(value: Any, *,
                 array_sink: Optional[Callable[[np.ndarray], Any]] = None,
                 plain: bool = False) -> bytes:
    """Encode one value tree into wire payload bytes.

    ``array_sink`` diverts array payloads out of band (see
    :class:`_Encoder`); ``plain`` writes the value as a plain-data tree
    (module docstring).
    """
    encoder = _Encoder(array_sink=array_sink, plain=plain)
    encoder.encode(value)
    return bytes(encoder.out)


def decode_value(data: Any, *, array_source: Optional[
        Callable[[np.dtype, tuple, Any], np.ndarray]] = None,
        plain: bool = False, decoder: type = _Decoder) -> Any:
    """Decode wire payload bytes back into the value tree.

    Raises :class:`WireDecodeError` on truncated, corrupted or disallowed
    payloads.  The contract is airtight: *any* failure while walking a
    malformed payload — an undecodable string, an impossible reshape —
    surfaces as :class:`WireDecodeError`, never a raw library exception.
    ``plain`` refuses every tag outside plain data (module docstring): the
    mode for untrusted peers.  ``decoder`` is the decoding pass to run (the
    legacy checkpoint reader brings its own).
    """
    view = memoryview(data) if not isinstance(data, memoryview) else data
    reader = decoder(view, array_source=array_source, plain=plain)
    try:
        value = reader.decode()
    except WireDecodeError:
        raise
    except Exception as exc:
        raise WireDecodeError(f"malformed wire payload: {exc!r}") from exc
    if reader.position != len(view):
        raise WireDecodeError(
            f"{len(view) - reader.position} trailing bytes after payload"
        )
    return value
