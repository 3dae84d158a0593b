"""Hand-built values in the retired object format (checkpoint version 1).

The live codec has no tags that name classes, enums, exceptions or bit
generators any more, so nothing in the package can write them.  These
helpers write them byte by byte — for tests of the legacy checkpoint reader
and of hostile input that names classes (``os:system`` included).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any

import numpy as np

from repro.wire import codec
from repro.wire.frames import pack_raw_frame

#: ``module:qualname`` references and the values that carry them.
Obj = namedtuple("Obj", "name attributes")
Cls = namedtuple("Cls", "name")
Member = namedtuple("Member", "name value")
Error = namedtuple("Error", "name args")
Generator = namedtuple("Generator", "state")
NpType = namedtuple("NpType", "token")
Ref = namedtuple("Ref", "index")
NumDict = namedtuple("NumDict", "keys values")
#: Payload bytes written verbatim (a retired tag and its payload).
Raw = namedtuple("Raw", "data")


class _OldEncoder(codec._Encoder):
    """The live encoder plus the retired tags of the markers above."""

    def encode(self, value: Any) -> None:
        out = self.out
        if isinstance(value, Obj):
            out.append(0x15)
            self._str(value.name)
            self._varint(len(value.attributes))
            for key, item in value.attributes.items():
                self._str(key)
                self.encode(item)
        elif isinstance(value, Cls):
            out.append(0x13)
            self._str(value.name)
        elif isinstance(value, Member):
            out.append(0x16)
            self._str(value.name)
            self.encode(value.value)
        elif isinstance(value, Error):
            out.append(0x17)
            self._str(value.name)
            self.encode(tuple(value.args))
        elif isinstance(value, Generator):
            out.append(0x12)
            self.encode(value.state)
        elif isinstance(value, NpType):
            out.append(0x1A)
            self._str(value.token)
        elif isinstance(value, Ref):
            out.append(0x18)
            self._varint(value.index)
        elif isinstance(value, Raw):
            out += value.data
        elif isinstance(value, NumDict):
            out.append(0x1D)
            out.append(0)
            self.encode(np.asarray(value.keys, dtype=np.int64))
            self.encode(np.asarray(value.values, dtype=np.float64))
        else:
            super().encode(value)


def old_value(value: Any) -> bytes:
    """``value`` as wire payload bytes, markers written with their tags."""
    encoder = _OldEncoder()
    encoder.encode(value)
    return bytes(encoder.out)


def old_frame(kind: str, value: Any) -> bytes:
    """A version-1 frame of ``kind`` around :func:`old_value`."""
    return pack_raw_frame(kind, old_value(value))


def old_state(name: str, version: int, data: dict) -> dict:
    """A version-1 state dictionary of class ``name`` (its nested version
    records, which the reader does not consult, left out)."""
    return {"cls": Cls(name), "state_version": version, "data": data}


def old_tracker_checkpoint(protocol: dict, **extra: Any) -> bytes:
    """A version-1 tracker checkpoint file around a protocol state."""
    payload = {
        "spec": "hh/P2", "params": {"num_sites": 2, "epsilon": 0.5},
        "chunk_size": 50,
        "partitioner": old_state(
            "repro.streaming.partition:RoundRobinPartitioner", 1,
            {"_num_sites": 2}),
        "protocol": protocol, "version": 1, **extra}
    return old_frame("repro/tracker-checkpoint", payload)
