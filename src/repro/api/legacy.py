"""Reading checkpoints of the retired object format (checkpoint version 1).

Version-1 checkpoints stored each component's instance dictionary under its
class name, through codec tags the live codec no longer has (``OBJECT``,
``CLASS``, ``ENUM``, ``NPGENERATOR``, ``NUMDICT``).  This module reads those
tags as **names-as-data** — a class is its name, an object its name and
attribute dictionary — and imports nothing a file names.  It converts two
layouts, compressed or not: ``hh/P2``'s and ``matrix/P3``'s at state version
1 (``tests/fixtures/hh_p2_v1.ckpt``, ``matrix_p3_v1.ckpt``), which hold no
shared references (tag ``REF``).  Every other old state is refused with a
``CheckpointError`` naming its class.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Callable, Dict, Tuple

import numpy as np

from ..sketch.base import counter_columns
from ..wire import WireDecodeError
from ..wire.codec import _DECODERS, _Decoder
from ..wire.frames import unpack_frame
from .state import CheckpointError

__all__ = ["read_legacy", "upgrade"]

#: An object of the old format, as data (a class is its name).
LegacyObject = namedtuple("LegacyObject", "name attributes")

#: Attributes of the old layouts that the current ones dropped: the
#: protocols' exact-truth accumulators.
_RETIRED_KEYS = ("_observed_covariance", "_observed_squared_frobenius", "_observed_weight")  # noqa: E501

_NPGENERATOR, _CLASS, _OBJECT, _ENUM, _NUMDICT = 0x12, 0x13, 0x15, 0x16, 0x1D


def _object(decoder: "_LegacyDecoder") -> LegacyObject:
    name = decoder._str()
    return LegacyObject(name, {decoder._str(): decoder.decode()
                               for _ in range(decoder._varint())})


def _numeric_dict(decoder: "_LegacyDecoder") -> dict:
    """A dict written as a flags byte (bit 0: ``np.int64`` keys, bit 1:
    ``np.float64`` values), an int64 keys array and a float64 values one."""
    flags, keys, values = decoder._byte(), decoder.decode(), decoder.decode()
    if (flags > 3 or getattr(keys, "dtype", None) != np.int64
            or getattr(values, "dtype", None) != np.float64
            or keys.ndim != 1 or values.shape != keys.shape):
        raise WireDecodeError("malformed numeric dict")
    return dict(zip(list(keys) if flags & 1 else keys.tolist(),
                    list(values) if flags & 2 else values.tolist()))


_LEGACY_DECODERS: Dict[int, Callable[[Any], Any]] = {
    **_DECODERS,
    _NPGENERATOR: lambda d: d.decode(),           # the bit generator's state
    _CLASS: lambda d: d._str(),
    _OBJECT: _object,
    _ENUM: lambda d: (d._str(), d.decode())[1],    # the member's value
    _NUMDICT: _numeric_dict,
}


class _LegacyDecoder(_Decoder):
    """The live decoder plus the retired object-format tags."""

    def __init__(self, data: memoryview, array_source: Any = None,
                 plain: bool = False) -> None:
        super().__init__(data, array_source=array_source)
        self.handlers = _LEGACY_DECODERS


def read_legacy(data: bytes) -> Tuple[str, Any]:
    """``(kind, value tree)`` of a frame in the retired object format; a
    :class:`~repro.wire.WireDecodeError` means no checkpoint of either."""
    return unpack_frame(data, decoder=_LegacyDecoder)


# ------------------------------------------------------------- conversion
def _common(data: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The base protocol's parameters and state: sites and message log."""
    log = data["_network"].attributes["log"].attributes
    records = [tuple(record.attributes[field] for field in (
        "direction", "kind", "site", "units", "sequence", "description"))
        for record in log["records"]]
    return ({"num_sites": data["_num_sites"],
             "keep_message_records": log["keep_records"]},
            {"items_processed": data["_items_processed"], "sites": [],
             "site_rngs": [],
             "messages": {"sequence": log["_sequence"],
                          "transmissions": log["_transmissions"],
                          "units_by_kind": dict(log["_units_by_kind"]),
                          "units_by_direction": dict(
                              log["_units_by_direction"]),
                          "records": records}})


def _space_saving(sketch: Any) -> Any:
    if sketch is None:
        return None
    counters = sketch.attributes["_counters"]
    return {"estimates": counter_columns(
                {key: value[0] for key, value in counters.items()}),
            "overcounts": np.array([value[1] for value in counters.values()],
                                   dtype=np.float64),
            "total_weight": sketch.attributes["_total_weight"]}


def _threshold_updates(data: Dict[str, Any]) -> Tuple[str, Dict, Dict]:
    params, state = _common(data)
    sites = [site.attributes for site in data["_sites"]]
    params["epsilon"] = data["_epsilon"]
    if sites[0]["sketch"] is not None:
        params["site_space"] = sites[0]["sketch"].attributes["_num_counters"]
    state.update(
        estimated_total=data["_estimated_total"],
        scalars_this_round=data["_scalar_messages_this_round"],
        rounds_completed=data["_rounds_completed"],
        sites=[{"weight_since_total": site["weight_since_total"],
                "deltas": counter_columns(site["deltas"]),
                "sketch": _space_saving(site["sketch"])} for site in sites],
        element_estimates=counter_columns(data["_element_estimates"]))
    return "hh/P2", params, state


def _row_priority_sampling(data: Dict[str, Any]) -> Tuple[str, Dict, Dict]:
    params, state = _common(data)
    params.update(dimension=data["_dimension"], epsilon=data["_epsilon"],
                  sample_size=data["_sample_size"])
    state.update(site_rngs=data["_site_rngs"], threshold=data["_threshold"],
                 round=data["_round"], is_exact=data["_is_exact"],
                 current_queue=data["_current_queue"],
                 next_queue=data["_next_queue"])
    return "matrix/P3", params, state


#: The convertible layouts: (class, state version) -> converter.
_UPGRADES = {
    ("repro.heavy_hitters.p2_threshold:ThresholdedUpdatesProtocol", 1):
        _threshold_updates,
    ("repro.matrix_tracking.p3_sampling:MatrixPrioritySamplingProtocol", 1):
        _row_priority_sampling,
}

#: Old partitioner classes -> their current declared state.
_PARTITIONERS = {
    "repro.streaming.partition:RoundRobinPartitioner":
        lambda data: {"kind": "round_robin"},
    "repro.streaming.partition:UniformRandomPartitioner":
        lambda data: {"kind": "uniform", "seed": data["_rng"]},
    "repro.streaming.partition:BlockPartitioner":
        lambda data: {"kind": "block", "stream_length": data["_stream_length"]},
}


def _protocol(state: Dict[str, Any], source: str) -> Dict[str, Any]:
    name, version = str(state.get("cls")), state.get("state_version")
    convert = _UPGRADES.get((name, version))
    if convert is None:
        raise CheckpointError(
            f"cannot restore {source}: {name.rpartition(':')[2]} state "
            f"version {version!r} is a retired object-format layout this "
            "build does not convert; finish the session with the release "
            "that wrote it")
    spec, params, converted = convert(
        {key: value for key, value in state["data"].items()
         if key not in _RETIRED_KEYS})
    return {"spec": spec, "params": params, "state_version": 1,
            "state": converted}


def upgrade(payload: Any, version: int, source: str) -> Dict[str, Any]:
    """A version-1 tracker or protocol payload in the current layout,
    stamped ``version``; anything else raises a ``CheckpointError``."""
    if not isinstance(payload, dict) or payload.get("version", 1) != 1 \
            or not isinstance(payload.get("protocol"), dict):
        raise CheckpointError(f"{source} is not a version-1 checkpoint")
    try:
        converted = dict(payload, version=version,
                         protocol=_protocol(payload["protocol"], source))
        if "partitioner" in payload:
            old = payload["partitioner"]
            partitioner = _PARTITIONERS.get(str(old.get("cls")))
            if partitioner is None:
                raise CheckpointError(f"cannot restore {source}: partitioner "
                                      f"{old.get('cls')} has no current form")
            converted["partitioner"] = partitioner(old["data"])
    except (KeyError, AttributeError, TypeError, IndexError) as exc:
        raise CheckpointError(f"cannot restore {source}: malformed "
                              f"version-1 payload: {exc!r}") from exc
    return converted
