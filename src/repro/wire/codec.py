"""The pickle-free value codec: arbitrary repro state ⇄ tagged binary.

Checkpoints and shard transport need to serialize the *complete* state graph
of a tracker session — nested dictionaries, NumPy arrays and scalars,
``numpy.random.Generator`` bit-generator states, enum members, frozen
dataclasses, per-site state holders and the tagged ``get_state``
dictionaries of every :class:`~repro.utils.stateio.Stateful` component —
without :mod:`pickle`.  This module is the encoding half of that story: a
recursive, self-describing, tag-based binary format with the same value
fidelity as pickle for the types the library actually uses, but **without
pickle's arbitrary-code-execution surface**:

* decoding never calls ``__reduce__``, ``__setstate__`` or any callable
  taken from the payload;
* classes and enums are shipped by qualified name and resolve only inside
  the ``repro`` package (plus builtin exception types for remote error
  reports) — a hostile file can at worst instantiate a repro class with
  chosen attributes, never run foreign code;
* functions do not travel at all: a shard worker runs only the commands
  its own table declares (:mod:`repro.cluster.worker_protocol`), and a
  frame names them as plain strings;
* object instances are rebuilt with ``cls.__new__(cls)`` and a plain
  ``__dict__`` update, exactly like :func:`~repro.utils.stateio.restore_object`.

Value fidelity contract (pinned by the round-trip property tests): floats,
ints (arbitrary precision — PCG64 states are 128-bit), strings, bytes,
containers, NumPy arrays (dtype, shape and payload bits) and scalars,
bit-generator states and enum members all round-trip **bit-identically**,
so a decoded tracker continues exactly like the encoded one.  Shared
references among mutable containers/objects are preserved through a memo
(the same object encoded twice decodes to one object), which also makes
reference cycles safe.

Two extensions serve compressed frames (:mod:`repro.wire.frames`) and the
shared-memory backend.  An ``array_sink`` may take an array out of band
and leave a reference (tag ``_SHMARRAY``) that the decoder's
``array_source`` resolves; the sinks leave arrays under
:data:`MIN_OUT_OF_BAND_BYTES` inline.  ``numeric_dicts`` writes a dict of
all-``int`` (or all-``np.int64``) keys to all-``float`` (or
all-``np.float64``) values as one ``_NUMDICT``: a keys array and a values
array, decoded with the same key and value types in the same order.
Neither is used by default, so uncompressed frames stay byte-identical to
those of earlier builds.

The one intentional lossy spot: ``__orig_class__`` attributes left on
instances by ``typing`` generic-alias construction (pure static-typing
metadata) are skipped, and exception *arguments* degrade to their ``repr``
when not primitive — remote errors are reports, not state.

**Plain data** (``plain=True``) is the subset for peers that are not this
program's own processes, such as HTTP clients of the serving gateway: None,
bool, int, float, str, bytes, list, tuple, dict and ``float64`` / ``int64``
/ ``bool`` arrays.  A plain decoder refuses every other tag by name before
reading its payload — nothing is resolved by qualified name, rebuilt as an
object or referenced twice — and a plain encoder writes a tree: shared
containers are written out again instead of as references, and NumPy
scalars as the Python numbers they hold.
"""

from __future__ import annotations

import enum
import importlib
import struct
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "MIN_OUT_OF_BAND_BYTES",
    "PLAIN_DTYPES",
    "WireError",
    "WireEncodeError",
    "WireDecodeError",
    "encode_value",
    "encode_with_extensions",
    "decode_value",
    "qualified_name",
    "resolve_qualified",
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
_BYTEARRAY = 0x09
_LIST = 0x0A
_TUPLE = 0x0B
_SET = 0x0C
_FROZENSET = 0x0D
_DICT = 0x0E
_ARRAY = 0x0F
_OBJARRAY = 0x10
_NPSCALAR = 0x11
_NPGENERATOR = 0x12
_CLASS = 0x13
# 0x14 was a module-level function by qualified name, retired when shard
# workers came to run only their declared commands: never reuse it either.
_OBJECT = 0x15
_ENUM = 0x16
_EXCEPTION = 0x17
_REF = 0x18
_DTYPE = 0x19
_NPTYPE = 0x1A
# 0x1B was the per-array packed codec (deflate / float32 downcast), retired
# with its only writer: never reuse it; decoders refuse it as an unknown tag.
_SHMARRAY = 0x1C
_NUMDICT = 0x1D

#: Tags outside plain data, by name (what a plain decoder's refusal says).
_NOT_PLAIN = {
    _COMPLEX: "COMPLEX", _BYTEARRAY: "BYTEARRAY", _SET: "SET",
    _FROZENSET: "FROZENSET", _OBJARRAY: "OBJARRAY", _NPSCALAR: "NPSCALAR",
    _NPGENERATOR: "NPGENERATOR", _CLASS: "CLASS", _OBJECT: "OBJECT",
    _ENUM: "ENUM", _EXCEPTION: "EXCEPTION", _REF: "REF",
    _DTYPE: "DTYPE", _NPTYPE: "NPTYPE", _SHMARRAY: "SHMARRAY",
    _NUMDICT: "NUMDICT",
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

#: ``_NUMDICT`` flag bits: the keys are ``np.int64`` (else ``int``), the
#: values ``np.float64`` (else ``float``).
_NUMDICT_NP_KEYS = 0x01
_NUMDICT_NP_VALUES = 0x02

#: Bit generators reconstructable by name (everything NumPy ships).
_BIT_GENERATORS = ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64")

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


def qualified_name(obj: Any) -> str:
    """``module:qualname`` reference for a repro class."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname:
        raise WireEncodeError(f"cannot reference {obj!r} by qualified name")
    if "<locals>" in qualname:
        raise WireEncodeError(
            f"cannot encode {qualname!r}: only module-level definitions can "
            "travel on the wire (closures and local classes cannot)"
        )
    return f"{module}:{qualname}"


def _module_allowed(module: str, allow_builtins: bool = False) -> bool:
    if module == "repro" or module.startswith("repro."):
        return True
    return allow_builtins and module == "builtins"


def resolve_qualified(name: str, allow_builtins: bool = False) -> Any:
    """Resolve a ``module:qualname`` reference inside the ``repro`` package.

    The module allowlist (``repro``/``repro.*``, plus ``builtins`` only where
    the caller opts in for exception types) is what keeps decoding free of
    pickle's import-anything behaviour.  Two checks close the traversal
    holes: the attribute walk refuses to step *into* another module (so
    ``repro.api.state:pickle.loads`` cannot reach :mod:`pickle` through the
    import at the top of ``api/state.py``), and the resolved object itself
    must be *defined* in an allowed module (``__module__`` is checked, not
    just the path it was reached by).
    """
    module_name, separator, qualname = name.partition(":")
    if not separator or not qualname:
        raise WireDecodeError(f"malformed qualified name {name!r}")
    if not _module_allowed(module_name, allow_builtins=allow_builtins):
        raise WireDecodeError(
            f"refusing to resolve {name!r}: wire payloads may only reference "
            "the repro package"
        )
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
            if isinstance(target, types.ModuleType):
                raise WireDecodeError(
                    f"refusing to resolve {name!r}: qualified names may not "
                    "traverse into other modules"
                )
    except (ImportError, AttributeError) as exc:
        raise WireDecodeError(f"cannot resolve {name!r}: {exc}") from exc
    owner = getattr(target, "__module__", None)
    if owner is None or not _module_allowed(owner, allow_builtins=allow_builtins):
        raise WireDecodeError(
            f"refusing to resolve {name!r}: it is defined in {owner!r}, "
            "outside the allowed modules"
        )
    return target


def _sanitize_exception_args(args: tuple) -> tuple:
    """Primitive args pass through; anything else degrades to its ``repr``."""
    return tuple(
        arg if isinstance(arg, (type(None), bool, int, float, str)) else repr(arg)
        for arg in args
    )


class _Encoder:
    """One encoding pass: a byte buffer plus the shared-reference memo.

    ``array_sink`` diverts array payloads out of band (shared memory, a
    compressed frame's raw section), leaving an ``_SHMARRAY`` reference in
    the byte stream.  ``numeric_dicts`` writes homogeneous numeric dicts as
    one ``_NUMDICT`` (a keys array and a values array).  ``used_extensions``
    records whether any post-v1 tag was actually emitted, so frame writers
    can stamp the lowest wire version that can express the payload.
    ``plain`` writes a tree a plain decoder accepts (see the module
    docstring), so it never writes ``_NUMDICT``.
    """

    def __init__(self, array_sink: Optional[Callable[[np.ndarray], Any]] = None,
                 plain: bool = False, numeric_dicts: bool = False) -> None:
        self.out = bytearray()
        self.used_extensions = False
        self._array_sink = array_sink
        self._plain = plain
        self._numeric_dicts = numeric_dicts and not plain
        self._memo: Dict[int, int] = {}
        self._keepalive: List[Any] = []   # pins ids against reuse mid-pass
        self._frozen_stack: set = set()   # cycle guard for immutable containers

    # ------------------------------------------------------------ primitives
    def _varint(self, value: int) -> None:
        _write_varint(self.out, value)

    def _str(self, text: str) -> None:
        data = text.encode("utf-8", errors="surrogatepass")
        self._varint(len(data))
        self.out += data

    def _memoize(self, value: Any) -> bool:
        """Emit a REF for already-seen objects; otherwise register and recurse."""
        if self._plain:
            return False  # a tree: a shared value is written out again
        index = self._memo.get(id(value))
        if index is not None:
            self.out.append(_REF)
            self._varint(index)
            return True
        self._memo[id(value)] = len(self._memo)
        self._keepalive.append(value)
        return False

    # -------------------------------------------------------------- dispatch
    def encode(self, value: Any) -> None:
        out = self.out
        if value is None:
            out.append(_NONE)
        elif value is True:
            out.append(_TRUE)
        elif value is False:
            out.append(_FALSE)
        elif isinstance(value, enum.Enum):
            # Before str/int: str-backed enums (MessageKind) are str subclasses.
            out.append(_ENUM)
            self._str(qualified_name(type(value)))
            self.encode(value.value)
        elif isinstance(value, np.generic):
            # Before int/float: np.float64 is a float subclass.
            if self._plain:
                self.encode(value.item())
            else:
                self._encode_npscalar(value)
        elif isinstance(value, int):
            if _INT64_MIN <= value <= _INT64_MAX:
                out.append(_INT64)
                out += _STRUCT_Q.pack(value)
            else:
                out.append(_BIGINT)
                length = (value.bit_length() + 8) // 8
                self._varint(length)
                out += value.to_bytes(length, "little", signed=True)
        elif isinstance(value, float):
            out.append(_FLOAT)
            out += _STRUCT_D.pack(value)
        elif isinstance(value, complex):
            out.append(_COMPLEX)
            out += _STRUCT_DD.pack(value.real, value.imag)
        elif isinstance(value, str):
            out.append(_STR)
            self._str(value)
        elif isinstance(value, bytes):
            out.append(_BYTES)
            self._varint(len(value))
            out += value
        elif isinstance(value, bytearray):
            if self._memoize(value):
                return
            out.append(_BYTEARRAY)
            self._varint(len(value))
            out += value
        elif isinstance(value, np.ndarray):
            self._encode_array(value)
        elif isinstance(value, np.dtype):
            out.append(_DTYPE)
            self._str(_dtype_token(value))
        elif isinstance(value, type):
            self._encode_class(value)
        elif isinstance(value, np.random.Generator):
            out.append(_NPGENERATOR)
            self.encode(value.bit_generator.state)
        elif isinstance(value, dict):
            if self._memoize(value):
                return
            if self._numeric_dicts and self._encode_numeric_dict(value):
                return
            out.append(_DICT)
            self._varint(len(value))
            for key, item in value.items():
                self.encode(key)
                self.encode(item)
        elif isinstance(value, list):
            if self._memoize(value):
                return
            out.append(_LIST)
            self._varint(len(value))
            for item in value:
                self.encode(item)
        elif isinstance(value, tuple):
            self._encode_frozen(_TUPLE, value, value)
        elif isinstance(value, frozenset):
            self._encode_frozen(_FROZENSET, value, sorted(value, key=repr))
        elif isinstance(value, set):
            if self._memoize(value):
                return
            out.append(_SET)
            self._varint(len(value))
            for item in sorted(value, key=repr):
                self.encode(item)
        elif isinstance(value, BaseException):
            out.append(_EXCEPTION)
            self._str(qualified_name(type(value)))
            self.encode(_sanitize_exception_args(value.args))
        else:
            self._encode_object(value)

    # ------------------------------------------------------------- compounds
    def _encode_frozen(self, tag: int, value: Any, items: Any) -> None:
        """Tuples/frozensets: immutable, so no memo slot — guard cycles only."""
        identity = id(value)
        if identity in self._frozen_stack:
            raise WireEncodeError(
                "self-referential tuple/frozenset cannot be encoded"
            )
        self._frozen_stack.add(identity)
        try:
            self.out.append(tag)
            self._varint(len(items))
            for item in items:
                self.encode(item)
        finally:
            self._frozen_stack.discard(identity)

    def _encode_array(self, array: np.ndarray) -> None:
        if self._memoize(array):
            return
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
                self.used_extensions = True
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

    def _encode_numeric_dict(self, value: dict) -> bool:
        """Write a dict of all-``int`` (or all-``np.int64``) keys inside the
        int64 range to all-``float`` (or all-``np.float64``) values as one
        ``_NUMDICT``: a flags byte, a keys array and a values array.
        Returns ``False``, having written nothing, for any other dict."""
        if type(value) is not dict or not value:
            return False
        key_type = type(next(iter(value)))
        value_type = type(next(iter(value.values())))
        if (key_type is not int and key_type is not np.int64
                or value_type is not float and value_type is not np.float64
                or not all(type(key) is key_type for key in value)
                or not all(type(item) is value_type
                           for item in value.values())):
            return False
        try:
            keys = np.fromiter(value, dtype=np.int64, count=len(value))
        except OverflowError:
            return False
        values = np.fromiter(value.values(), dtype=np.float64,
                             count=len(value))
        self.used_extensions = True
        self.out.append(_NUMDICT)
        self.out.append((_NUMDICT_NP_KEYS if key_type is np.int64 else 0)
                        | (_NUMDICT_NP_VALUES if value_type is np.float64
                           else 0))
        self._encode_array(keys)
        self._encode_array(values)
        return True

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

    def _encode_class(self, cls: type) -> None:
        if issubclass(cls, np.generic):
            self.out.append(_NPTYPE)
            self._str(np.dtype(cls).str)
            return
        name = qualified_name(cls)
        if not _module_allowed(cls.__module__):
            raise WireEncodeError(
                f"cannot encode class {name!r}: only repro classes travel on "
                "the wire"
            )
        self.out.append(_CLASS)
        self._str(name)

    def _encode_object(self, value: Any) -> None:
        cls = type(value)
        if not _module_allowed(cls.__module__):
            raise WireEncodeError(
                f"cannot encode {cls.__module__}.{cls.__qualname__} instance: "
                "only repro-package objects travel on the wire"
            )
        attributes = getattr(value, "__dict__", None)
        if attributes is None:
            attributes = _slot_attributes(value)
        if self._memoize(value):
            return
        self.out.append(_OBJECT)
        self._str(qualified_name(cls))
        # __orig_class__ is typing metadata injected by Generic[...]
        # construction; it is irrelevant to behaviour and not encodable.
        items = [(key, item) for key, item in attributes.items()
                 if key != "__orig_class__"]
        self._varint(len(items))
        for key, item in items:
            self._str(key)
            self.encode(item)


def _slot_attributes(value: Any) -> Dict[str, Any]:
    """Attribute snapshot of a ``__slots__``-only instance (whole MRO)."""
    attributes: Dict[str, Any] = {}
    for klass in type(value).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name not in attributes and hasattr(value, name):
                attributes[name] = getattr(value, name)
    if not attributes and not any(
            getattr(klass, "__slots__", None) for klass in type(value).__mro__):
        raise WireEncodeError(
            f"cannot encode {type(value).__qualname__} instance without "
            "__dict__ or __slots__"
        )
    return attributes


def _dtype_token(dtype: np.dtype) -> str:
    if dtype.fields is not None or dtype.subdtype is not None:
        raise WireEncodeError(f"structured dtype {dtype!r} is not supported")
    return dtype.str


class _Decoder:
    """One decoding pass over a payload buffer (memo mirrors the encoder's).

    ``array_source`` resolves ``_SHMARRAY`` out-of-band references (shared
    memory); without it such a payload raises :class:`WireDecodeError`.
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
        self.memo: List[Any] = []

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
            if tag in _NOT_PLAIN:
                raise WireDecodeError(
                    f"wire tag {_NOT_PLAIN[tag]} (0x{tag:02X}) is not plain "
                    "data: only None, bool, int, float, str, bytes, list, "
                    "tuple, dict and float64/int64/bool arrays are accepted"
                )
            raise WireDecodeError(f"unknown wire tag 0x{tag:02X}")
        return handler(self)

    def _decode_dict(self) -> dict:
        result: dict = {}
        self.memo.append(result)
        for _ in range(self._varint()):
            key = self.decode()
            result[key] = self.decode()
        return result

    def _decode_list(self) -> list:
        result: list = []
        self.memo.append(result)
        for _ in range(self._varint()):
            result.append(self.decode())
        return result

    def _decode_set(self) -> set:
        result: set = set()
        self.memo.append(result)
        for _ in range(self._varint()):
            result.add(self.decode())
        return result

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
        memo_slot = len(self.memo)
        self.memo.append(None)
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
        array = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        self.memo[memo_slot] = array
        return array

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
        memo_slot = len(self.memo)
        self.memo.append(None)
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
        self.memo[memo_slot] = array
        return array

    def _decode_numeric_dict(self) -> dict:
        result: dict = {}
        self.memo.append(result)
        flags = self._byte()
        keys = self.decode()
        values = self.decode()
        if (flags & ~(_NUMDICT_NP_KEYS | _NUMDICT_NP_VALUES)
                or not isinstance(keys, np.ndarray)
                or not isinstance(values, np.ndarray)
                or keys.dtype != np.int64 or values.dtype != np.float64
                or keys.ndim != 1 or values.shape != keys.shape):
            raise WireDecodeError(
                "malformed numeric dict: expected a flags byte, an int64 "
                "keys array and a float64 values array of one length"
            )
        result.update(zip(
            list(keys) if flags & _NUMDICT_NP_KEYS else keys.tolist(),
            list(values) if flags & _NUMDICT_NP_VALUES else values.tolist(),
        ))
        return result

    def _decode_objarray(self) -> np.ndarray:
        memo_slot = len(self.memo)
        self.memo.append(None)
        shape = self._shape()
        array = np.empty(shape, dtype=object)
        self.memo[memo_slot] = array
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

    def _decode_generator(self) -> np.random.Generator:
        state = self.decode()
        if not isinstance(state, dict) or "bit_generator" not in state:
            raise WireDecodeError("malformed bit-generator state")
        name = state["bit_generator"]
        if name not in _BIT_GENERATORS:
            raise WireDecodeError(f"unknown bit generator {name!r}")
        bit_generator = getattr(np.random, name)()
        bit_generator.state = state
        return np.random.Generator(bit_generator)

    def _decode_object(self) -> Any:
        memo_slot = len(self.memo)
        self.memo.append(None)
        cls = resolve_qualified(self._str())
        if not isinstance(cls, type):
            raise WireDecodeError(f"{cls!r} is not a class")
        instance = cls.__new__(cls)
        self.memo[memo_slot] = instance
        attributes = {}
        for _ in range(self._varint()):
            key = self._str()
            attributes[key] = self.decode()
        if hasattr(instance, "__dict__"):
            # Works for frozen dataclasses too: __dict__ updates bypass the
            # frozen __setattr__ guard.
            instance.__dict__.update(attributes)
        else:  # __slots__-only instance
            for key, item in attributes.items():
                object.__setattr__(instance, key, item)
        return instance

    def _decode_enum(self) -> Any:
        cls = resolve_qualified(self._str())
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise WireDecodeError(f"{cls!r} is not an Enum class")
        return cls(self.decode())

    def _decode_exception(self) -> BaseException:
        name = self._str()
        args = self.decode()
        # Anything that cannot be rebuilt as the original exception class
        # (foreign module, odd constructor) degrades to a RuntimeError
        # report — remote errors are diagnostics, not state.
        try:
            cls = resolve_qualified(name, allow_builtins=True)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                return cls(*args)
        except WireDecodeError:
            pass
        except Exception:
            pass
        return RuntimeError(f"{name}{tuple(args)!r}")

    def _decode_ref(self) -> Any:
        index = self._varint()
        if index >= len(self.memo):
            raise WireDecodeError(f"dangling memo reference {index}")
        return self.memo[index]


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
    _BYTEARRAY: lambda d: _memo_append(d, bytearray(d._take(d._varint()))),
    _LIST: _Decoder._decode_list,
    _TUPLE: lambda d: tuple(d.decode() for _ in range(d._varint())),
    _SET: _Decoder._decode_set,
    _FROZENSET: lambda d: frozenset(d.decode() for _ in range(d._varint())),
    _DICT: _Decoder._decode_dict,
    _ARRAY: _Decoder._decode_array,
    _OBJARRAY: _Decoder._decode_objarray,
    _NPSCALAR: _Decoder._decode_npscalar,
    _NPGENERATOR: _Decoder._decode_generator,
    _CLASS: lambda d: _decode_class(d),
    _OBJECT: _Decoder._decode_object,
    _ENUM: _Decoder._decode_enum,
    _EXCEPTION: _Decoder._decode_exception,
    _REF: _Decoder._decode_ref,
    _DTYPE: lambda d: d._dtype(),
    _NPTYPE: lambda d: d._dtype().type,
    _SHMARRAY: _Decoder._decode_shmarray,
    _NUMDICT: _Decoder._decode_numeric_dict,
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


def _memo_append(decoder: _Decoder, value: Any) -> Any:
    decoder.memo.append(value)
    return value


def _decode_class(decoder: _Decoder) -> type:
    cls = resolve_qualified(decoder._str())
    if not isinstance(cls, type):
        raise WireDecodeError(f"{cls!r} is not a class")
    return cls


def encode_value(value: Any, *,
                 array_sink: Optional[Callable[[np.ndarray], Any]] = None,
                 plain: bool = False, numeric_dicts: bool = False) -> bytes:
    """Encode one value tree into wire payload bytes.

    ``array_sink`` diverts array payloads out of band and ``numeric_dicts``
    writes homogeneous numeric dicts as array pairs (see :class:`_Encoder`),
    producing a payload that requires a wire-version-2-aware decoder;
    :func:`encode_with_extensions` reports whether the payload actually
    used a new tag.  ``plain`` writes the value as a plain-data tree
    (module docstring).
    """
    return encode_with_extensions(value, array_sink=array_sink, plain=plain,
                                  numeric_dicts=numeric_dicts)[0]


def encode_with_extensions(value: Any, *,
                           array_sink: Optional[
                               Callable[[np.ndarray], Any]] = None,
                           plain: bool = False,
                           numeric_dicts: bool = False) -> Tuple[bytes, bool]:
    """Like :func:`encode_value`, also reporting whether any post-v1 codec
    tag was emitted (used by frame writers for version negotiation)."""
    encoder = _Encoder(array_sink=array_sink, plain=plain,
                       numeric_dicts=numeric_dicts)
    encoder.encode(value)
    return bytes(encoder.out), encoder.used_extensions


def decode_value(data: Any, *, array_source: Optional[
        Callable[[np.dtype, tuple, Any], np.ndarray]] = None,
        plain: bool = False) -> Any:
    """Decode wire payload bytes back into the value tree.

    Raises :class:`WireDecodeError` on truncated, corrupted or disallowed
    payloads (never resolves anything outside the ``repro`` package).  The
    contract is airtight: *any* failure while walking a malformed payload —
    a bad enum value, an undecodable string, an impossible reshape —
    surfaces as :class:`WireDecodeError`, never a raw library exception.
    ``plain`` refuses every tag outside plain data (module docstring), so
    nothing is ever resolved by name: the mode for untrusted peers.
    """
    view = memoryview(data) if not isinstance(data, memoryview) else data
    decoder = _Decoder(view, array_source=array_source, plain=plain)
    try:
        value = decoder.decode()
    except WireDecodeError:
        raise
    except Exception as exc:
        raise WireDecodeError(f"malformed wire payload: {exc!r}") from exc
    if decoder.position != len(view):
        raise WireDecodeError(
            f"{len(view) - decoder.position} trailing bytes after payload"
        )
    return value
