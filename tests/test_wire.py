"""The wire layer: codec fidelity, frame hardening, state round-trips.

Three layers of guarantees:

* **Codec fidelity** — every value shape a declared state or a frame
  contains (arbitrary-precision ints, NaN/inf floats, NumPy arrays of any
  numeric dtype/order/shape, object arrays, NumPy scalars, containers, the
  state dicts of every NumPy bit generator) round-trips bit-identically;
  objects, classes, enums, exceptions and cycles have no encoding.
* **Decode hardening** — no tag names a class, a function or an object:
  the retired ones are refused by name and nothing is imported; corrupted,
  truncated, version-skewed or mislabelled frames raise
  :class:`WireDecodeError`, never half-decoded values.
* **State round-trips** — for every registered protocol spec, a
  ``tracker_frame``/``tracker_from_frame`` round-trip mid-stream is
  bit-identical in answers, message accounting and RNG state (the in-memory
  form of the checkpoint property pinned by ``test_api_state_roundtrip``).
"""

from __future__ import annotations

import socket
import sys
import struct
import zlib

import numpy as np
import pytest

import repro
from repro.api import Covariance, FrobeniusSquared, HeavyHitters, TotalWeight
from repro.api.state import tracker_frame, tracker_from_frame
from repro.cluster.backends import BackendError
from repro.cluster.sharded_tracker import _shard_ingest
from repro.cluster.worker_protocol import (
    COMMAND_KIND,
    INGEST_KIND,
    decode_command,
    encode_command,
    encode_ingest,
    encode_reply,
    encode_submit,
    unpack_reply,
)
from repro.streaming.items import MatrixRowBatch, WeightedItem, WeightedItemBatch
from repro.streaming.network import CommunicationLog, Direction, MessageKind, Network
from repro.obs.logging import current_trace_id, trace_context
from repro.utils.rng import restore_generator
from repro.wire import (
    WIRE_BASE_VERSION,
    WIRE_MAGIC,
    WIRE_VERSION,
    WireDecodeError,
    WireEncodeError,
    decode_value,
    encode_value,
    is_wire_data,
    pack_frame,
    recv_frame,
    send_frame,
    unpack_frame,
)
from repro.wire.frames import pack_raw_frame

from test_api_state_roundtrip import (
    HH_SPECS,
    MATRIX_SPECS,
    _params,
    _rng_states,
    _tracker,
)
from test_protocol_equivalence_properties import SEEDS, hh_stream, matrix_stream

from old_format import Cls, Error, Generator, Member, NpType, NumDict, Obj, Ref, old_value

CHUNK = 50


def roundtrip(value):
    return decode_value(encode_value(value))


# ------------------------------------------------------------ codec fidelity
class TestCodecPrimitives:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**62, -(2**62),
        2**64, -(2**64), 2**200 + 12345, -(2**200 + 12345),  # PCG64-size ints
        0.0, -0.0, 1.5, float("inf"), float("-inf"),
        complex(1.5, -2.5),
        "", "héllo ∑ world", "a" * 10_000,
        b"", b"\x00\xff" * 100,
    ])
    def test_scalar_roundtrip(self, value):
        result = roundtrip(value)
        assert result == value
        assert type(result) is type(value)

    def test_nan_and_negative_zero_bits_preserved(self):
        nan = struct.unpack("<d", struct.pack("<d", float("nan")))[0]
        assert struct.pack("<d", roundtrip(nan)) == struct.pack("<d", nan)
        assert str(roundtrip(-0.0)) == "-0.0"

    def test_containers_roundtrip(self):
        value = {
            "list": [1, 2.5, "x", None],
            "tuple": (1, (2, (3,))),
            "frozenset": frozenset({"a", "b"}),
            ("tuple", "key"): "tuple keys work",
            3: "int key",
            2.5: "float key",
            "bytes": b"abc",
        }
        result = roundtrip(value)
        assert result == value
        assert type(result[("tuple", "key")]) is str
        for nothing_writes in ({1, 2}, bytearray(b"abc"), np.dtype("f8")):
            with pytest.raises(WireEncodeError):
                encode_value(nothing_writes)

    def test_dict_insertion_order_preserved(self):
        value = {key: index for index, key in enumerate("zyxwv")}
        assert list(roundtrip(value)) == list(value)

    def test_enum_members_have_no_encoding(self):
        """A declared state carries an enum member as its value."""
        with pytest.raises(WireEncodeError, match="MessageKind"):
            encode_value({MessageKind.SCALAR: 3})
        assert roundtrip({MessageKind.SCALAR.value: 3}) == {"scalar": 3}

    def test_shared_references_are_written_twice_and_cycles_refused(self):
        shared = [1, 2, 3]
        result = roundtrip({"a": shared, "b": shared})
        assert result == {"a": [1, 2, 3], "b": [1, 2, 3]}
        assert result["a"] is not result["b"]

        cyclic_list: list = []
        cyclic_list.append(cyclic_list)
        cyclic_dict: dict = {}
        cyclic_dict["x"] = [cyclic_dict]
        for cyclic in (cyclic_list, cyclic_dict):
            with pytest.raises(WireEncodeError, match="self-referential"):
                encode_value(cyclic)

    def test_self_referential_tuple_rejected_not_hung(self):
        hole: list = []
        value = (hole,)
        hole.append(value)
        with pytest.raises(WireEncodeError, match="self-referential"):
            encode_value(value)


class TestCodecNumpy:
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int64", "int32",
                                       "uint8", "bool", "complex128"])
    def test_array_dtypes_roundtrip_bit_identically(self, dtype):
        rng = np.random.default_rng(0)
        array = (rng.standard_normal(37) * 100).astype(dtype)
        result = roundtrip(array)
        assert result.dtype == array.dtype
        assert np.array_equal(result, array)
        assert result.tobytes() == array.tobytes()

    def test_array_shapes_orders_and_writability(self):
        rng = np.random.default_rng(1)
        for array in [
            np.empty((0, 5)),
            rng.standard_normal((4, 5, 6)),
            np.asfortranarray(rng.standard_normal((6, 7))),
            rng.standard_normal((8, 9))[::2, ::3],  # non-contiguous view
            np.full((), 3.25),                      # 0-d array
        ]:
            result = roundtrip(array)
            assert result.shape == array.shape
            assert np.array_equal(result, array)
            assert result.flags.writeable and result.flags.owndata

    def test_object_arrays_with_mixed_labels(self):
        array = np.empty(4, dtype=object)
        array[:] = ["alpha", ("composite", 3), 42, 2.5]
        result = roundtrip(array)
        assert result.dtype == object
        assert list(result) == list(array)

    @pytest.mark.parametrize("scalar", [np.float64(1.5), np.int64(-7),
                                        np.uint32(9), np.bool_(True)])
    def test_numpy_scalars_keep_their_dtype(self, scalar):
        result = roundtrip(scalar)
        assert type(result) is type(scalar)
        assert result == scalar

    def test_numpy_scalar_dict_keys(self):
        value = {np.int64(3): 1.0, np.int64(5): 2.0}
        result = roundtrip(value)
        assert result == value
        assert all(type(key) is np.int64 for key in result)

    @pytest.mark.parametrize("name", ["PCG64", "PCG64DXSM", "MT19937",
                                      "Philox", "SFC64"])
    def test_every_bit_generator_resumes_identically(self, name):
        generator = np.random.Generator(getattr(np.random, name)(seed=42))
        generator.standard_normal(13)  # advance past the seed state
        with pytest.raises(WireEncodeError, match="Generator"):
            encode_value(generator)
        clone = restore_generator(roundtrip(generator.bit_generator.state))
        # State dicts may hold arrays (MT19937 keys): compare encoded bytes.
        assert encode_value(clone.bit_generator.state) \
            == encode_value(generator.bit_generator.state)
        assert np.array_equal(clone.standard_normal(16),
                              generator.standard_normal(16))

    def test_a_bit_generator_outside_numpys_table_is_refused(self):
        state = np.random.default_rng(1).bit_generator.state
        with pytest.raises(ValueError, match="bit-generator"):
            restore_generator(dict(state, bit_generator="os.system"))

    def test_type_objects_have_no_encoding(self):
        with pytest.raises(WireEncodeError):
            encode_value(np.float64)


class TestCodecObjects:
    @pytest.mark.parametrize("value", [
        WeightedItem(element=("k", 1), weight=2.5, site=3),
        WeightedItemBatch.from_pairs([("a", 1.0), ("b", 2.0)], sites=[0, 1]),
        MatrixRowBatch(values=np.eye(3)),
        CommunicationLog(),
        ValueError("boom"),
    ], ids=["dataclass", "item batch", "row batch", "log", "exception"])
    def test_objects_have_no_encoding(self, value):
        with pytest.raises(WireEncodeError, match="plain data"):
            encode_value(value)

    def test_the_message_log_declares_its_state(self):
        log = CommunicationLog(keep_records=True)
        log.record(Direction.SITE_TO_COORDINATOR, MessageKind.VECTOR, 2, site=1)
        log.record(Direction.COORDINATOR_TO_SITE, MessageKind.BROADCAST, 3)
        clone = CommunicationLog(keep_records=True)
        clone.load_state_dict(roundtrip(log.state_dict()))
        assert vars(clone) == vars(log)
        network = Network(num_sites=3)
        network.send_vector(0, units=2)
        network.broadcast()
        twin = Network(num_sites=3)
        twin.log.load_state_dict(roundtrip(network.log.state_dict()))
        assert twin.message_counts() == network.message_counts()

    def test_error_replies_name_a_type_from_the_closed_table(self):
        def through_a_reply(error):
            status, value, _ = unpack_reply(encode_reply("error", error))
            assert status == "error"
            return value

        builtin = through_a_reply(ValueError("boom"))
        assert type(builtin) is ValueError and builtin.args == ("boom",)
        ours = through_a_reply(BackendError("shard died"))
        assert type(ours) is BackendError and ours.args == ("shard died",)
        foreign = through_a_reply(np.linalg.LinAlgError("singular"))
        assert type(foreign) is RuntimeError
        assert str(foreign) == "LinAlgError: singular"
        several = through_a_reply(KeyError("key"))
        assert type(several) is KeyError and several.args == ("'key'",)


class TestDecodeHardening:
    def test_foreign_objects_refused_on_encode(self):
        class Local:
            pass

        import collections
        import os
        for value in (Local(), Local, collections.deque([1]), os.system):
            with pytest.raises(WireEncodeError, match="plain data"):
                encode_value(value)

    @pytest.mark.parametrize("name, value", [
        ("OBJECT", Obj("os:system", {"command": "true"})),
        ("OBJECT", Obj("repro.api.tracker:Tracker", {})),
        ("CLASS", Cls("os:system")),
        ("CLASS", Cls("repro.streaming.network:Network")),
        ("ENUM", Member("repro.streaming.network:MessageKind", "scalar")),
        ("EXCEPTION", Error("os:system", ("true",))),
        ("NPGENERATOR", Generator({"bit_generator": "PCG64"})),
        ("NPTYPE", NpType("<f8")),
        ("REF", Ref(0)),
        ("NUMDICT", NumDict([1], [1.0])),
    ])
    def test_retired_tags_are_refused_by_name_and_import_nothing(
            self, name, value):
        modules = set(sys.modules)
        payload = old_value([value])
        for plain in (False, True):
            with pytest.raises(WireDecodeError, match=f"wire tag {name} "):
                decode_value(payload, plain=plain)
        assert set(sys.modules) == modules

    def test_hostile_array_shapes_raise_wire_errors_not_memoryerror(self):
        from repro.wire.codec import _Encoder

        # OBJARRAY promising 2^56 elements: must refuse, not allocate.
        encoder = _Encoder()
        encoder.out.append(0x10)          # OBJARRAY tag
        encoder._varint(1)                # ndim
        encoder._varint(2 ** 56 - 1)      # dim
        with pytest.raises(WireDecodeError, match="elements"):
            decode_value(bytes(encoder.out))
        # ARRAY whose shape product overflows int64 to 0: the Python-int
        # count check must catch it before reshape sees it.
        encoder = _Encoder()
        encoder.out.append(0x0F)          # ARRAY tag
        encoder._str("<f8")
        encoder._varint(2)                # ndim
        encoder._varint(2 ** 32)
        encoder._varint(2 ** 32)          # 2^64 elements
        encoder._varint(0)                # empty section
        with pytest.raises(WireDecodeError):
            decode_value(bytes(encoder.out))

    def test_malformed_payloads_never_leak_raw_exceptions(self):
        from repro.wire.codec import _Encoder

        # A bad dtype token is the decoder's error, not NumPy's.
        encoder = _Encoder()
        encoder.out.append(0x0F)          # ARRAY tag
        encoder._str("definitely-not-a-dtype")
        with pytest.raises(WireDecodeError, match="dtype"):
            decode_value(bytes(encoder.out))

    def test_functions_have_no_encoding(self):
        """Functions do not travel: encoding one fails, and the tag that
        once named one by qualified name (0x14) is refused by name."""
        from repro.api.state import save_tracker

        for function in (save_tracker, _shard_ingest, len):
            with pytest.raises(WireEncodeError):
                encode_value(function)
        name = b"repro.api.state:save_tracker"
        for plain in (False, True):
            with pytest.raises(WireDecodeError,
                               match=r"wire tag FUNCTION \(0x14\)"):
                decode_value(b"\x14" + bytes([len(name)]) + name,
                             plain=plain)

    def test_truncated_and_garbage_payloads(self):
        payload = encode_value({"a": [1, 2, 3]})
        with pytest.raises(WireDecodeError):
            decode_value(payload[:-2])
        with pytest.raises(WireDecodeError, match="trailing"):
            decode_value(payload + b"\x00")
        with pytest.raises(WireDecodeError, match="unknown wire tag"):
            decode_value(b"\xfe")


# -------------------------------------------------------------- frame layer
class TestFrames:
    def test_pack_unpack_and_kind_check(self):
        frame = pack_frame("repro/test", {"x": np.arange(4)})
        assert is_wire_data(frame)
        kind, value = unpack_frame(frame)
        assert kind == "repro/test"
        assert np.array_equal(value["x"], np.arange(4))
        with pytest.raises(WireDecodeError, match="expected a 'repro/other'"):
            unpack_frame(frame, expected_kind="repro/other")

    def test_flipped_magic_rejected(self):
        frame = bytearray(pack_frame("repro/test", 1))
        frame[0] ^= 0xFF
        assert not is_wire_data(frame)
        with pytest.raises(WireDecodeError, match="not a wire frame"):
            unpack_frame(bytes(frame))

    def test_version_skew_rejected(self):
        frame = bytearray(pack_frame("repro/test", 1))
        struct.pack_into("<H", frame, 4, WIRE_VERSION + 1)
        with pytest.raises(WireDecodeError, match="version"):
            unpack_frame(bytes(frame))

    def test_bad_section_lengths_rejected(self):
        frame = bytearray(pack_frame("repro/test", [1, 2, 3]))
        # Corrupt the body-length field (right after the kind string).
        offset = 10 + len("repro/test")
        struct.pack_into("<Q", frame, offset, 10_000)
        with pytest.raises(WireDecodeError, match="length mismatch"):
            unpack_frame(bytes(frame))
        with pytest.raises(WireDecodeError, match="truncated"):
            unpack_frame(pack_frame("repro/test", [1, 2, 3])[:8])

    def test_corrupted_body_fails_crc(self):
        frame = bytearray(pack_frame("repro/test", [1, 2, 3]))
        frame[-6] ^= 0x01  # flip a bit inside the body
        with pytest.raises(WireDecodeError, match="CRC"):
            unpack_frame(bytes(frame))

    def test_array_section_length_validated(self):
        # dtype/shape promise more bytes than the section carries.
        from repro.wire.codec import _Encoder
        encoder = _Encoder()
        encoder.out.append(0x0F)          # ARRAY tag
        encoder._str("<f8")
        encoder._varint(1)                # ndim
        encoder._varint(4)                # shape (4,) -> wants 32 bytes
        encoder._varint(8)                # but section says 8
        encoder.out += b"\x00" * 8
        with pytest.raises(WireDecodeError, match="does not match"):
            decode_value(bytes(encoder.out))

    def test_stream_framing_over_a_socket(self):
        left, right = socket.socketpair()
        try:
            frame = pack_frame("repro/test", {"payload": list(range(100))})
            send_frame(left, frame)
            send_frame(left, pack_frame("repro/test", "second"))
            assert unpack_frame(recv_frame(right))[1]["payload"][-1] == 99
            assert unpack_frame(recv_frame(right))[1] == "second"
            left.close()
            with pytest.raises(EOFError):
                recv_frame(right)
        finally:
            right.close()


# ---------------------------------------- compressed wire sections (v2)
def _frame_header(frame: bytes):
    magic, version, flags, _ = struct.unpack_from("<4sHHH", frame, 0)
    assert magic == WIRE_MAGIC
    return version, flags


def _rebuild_with_body(frame: bytes, new_body: bytes) -> bytes:
    """Reassemble a frame around a replaced stored body, CRC recomputed
    (to reach the inflate path rather than the CRC check)."""
    _, _, flags, kind_length = struct.unpack_from("<4sHHH", frame, 0)
    header_end = 10 + kind_length
    return b"".join((
        frame[:header_end],
        struct.pack("<Q", len(new_body)),
        new_body,
        struct.pack("<I", zlib.crc32(new_body)),
    ))


class TestCompressedFrames:
    """Per-section compression and the v1/v2 negotiation contract."""

    def test_plain_frames_stay_version1(self):
        frame = pack_frame("repro/test", {"x": np.arange(16)})
        version, flags = _frame_header(frame)
        assert version == WIRE_BASE_VERSION
        assert flags == 0

    def test_compressed_frame_roundtrips_and_shrinks(self):
        value = {"zeros": np.zeros(4096), "labels": ["repeat"] * 500}
        plain = pack_frame("repro/test", value)
        packed = pack_frame("repro/test", value, compress=True)
        assert len(packed) < len(plain) // 2
        version, flags = _frame_header(packed)
        assert version == WIRE_VERSION
        assert flags & 0x0001
        kind, decoded = unpack_frame(packed)
        assert kind == "repro/test"
        assert np.array_equal(decoded["zeros"], value["zeros"])
        assert decoded["labels"] == value["labels"]

    def test_incompressible_body_falls_back_to_plain_v1(self):
        # Deflate cannot shrink a tiny body; the writer must not stamp v2
        # for a feature it did not use.
        frame = pack_frame("repro/test", b"\x93\x1c\x5a", compress=True)
        version, flags = _frame_header(frame)
        assert version == WIRE_BASE_VERSION
        assert flags == 0
        assert unpack_frame(frame)[1] == b"\x93\x1c\x5a"

    def test_corrupt_deflate_stream_raises_wire_error(self):
        packed = pack_frame("repro/test", {"zeros": np.zeros(4096)},
                            compress=True)
        _, _, flags, kind_length = struct.unpack_from("<4sHHH", packed, 0)
        assert flags & 0x0001
        body_start = 10 + kind_length + 8
        body = bytearray(packed[body_start:-4])
        body[1] ^= 0xFF
        with pytest.raises(WireDecodeError, match="deflated"):
            unpack_frame(_rebuild_with_body(packed, bytes(body)))

    def test_trailing_garbage_after_deflate_stream_rejected(self):
        packed = pack_frame("repro/test", {"zeros": np.zeros(4096)},
                            compress=True)
        _, _, _, kind_length = struct.unpack_from("<4sHHH", packed, 0)
        body_start = 10 + kind_length + 8
        body = packed[body_start:-4] + b"\x00\x00"
        with pytest.raises(WireDecodeError, match="truncated or oversized"):
            unpack_frame(_rebuild_with_body(packed, body))

    def test_v1_frame_with_flags_rejected(self):
        frame = bytearray(pack_frame("repro/test", 1))
        struct.pack_into("<H", frame, 6, 0x0001)  # deflate flag on a v1 frame
        with pytest.raises(WireDecodeError, match="unknown flags"):
            unpack_frame(bytes(frame))

    def test_unknown_v2_flag_rejected(self):
        frame = bytearray(pack_frame("repro/test", np.zeros(512),
                                     compress=True))
        version, flags = _frame_header(bytes(frame))
        assert version == WIRE_VERSION
        struct.pack_into("<H", frame, 6, flags | 0x8000)
        with pytest.raises(WireDecodeError, match="unknown flags"):
            unpack_frame(bytes(frame))


class TestRetiredPackedArrayTag:
    """Tag ``0x1B`` (per-array deflate / float32 downcast) has no writer any
    more; frames that carry it are refused, never half-understood."""

    def test_tag_0x1b_is_refused_by_name(self):
        # A hand-assembled float32-packed section exactly as the last build
        # that had the codec wrote it: tag, dtype, rank, dim, encoding byte
        # (0x04 = f32), byte length, payload.
        payload = np.float32([1.5, 2.5]).tobytes()
        body = (b"\x1b" + bytes([3]) + b"<f8" + bytes([1, 2, 0x04, len(payload)])
                + payload)
        with pytest.raises(WireDecodeError, match="0x1B"):
            decode_value(body)
        frame = _rebuild_with_body(pack_frame("repro/test", None), body)
        with pytest.raises(WireDecodeError, match="0x1B"):
            unpack_frame(frame)


class TestPlainData:
    """``plain=True``: the subset for peers that are not our own processes
    (the gateway's HTTP bodies; ``test_gateway`` drives every refused tag
    through every route)."""

    def test_plain_values_round_trip(self):
        value = {"none": None, "flags": [True, False], "big": -(1 << 70),
                 "float": 1.5, "text": "é", "raw": b"\x00", "pair": (1, "a"),
                 "f8": np.arange(6.0).reshape(2, 3), "i8": np.arange(3),
                 "b1": np.array([True, False])}
        decoded = decode_value(encode_value(value, plain=True), plain=True)
        assert list(decoded) == list(value)
        for key in ("none", "flags", "big", "float", "text", "raw", "pair"):
            assert decoded[key] == value[key]
        for key in ("f8", "i8", "b1"):
            assert decoded[key].dtype == value[key].dtype
            assert np.array_equal(decoded[key], value[key])

    def test_plain_encoding_writes_a_tree(self):
        shared = [1.0, 2.0]
        decoded = decode_value(encode_value(
            {"a": shared, "b": shared, "x": np.float64(0.5), "n": np.int64(3)},
            plain=True), plain=True)
        assert decoded == {"a": [1.0, 2.0], "b": [1.0, 2.0], "x": 0.5, "n": 3}
        assert decoded["a"] is not decoded["b"]
        assert type(decoded["x"]) is float and type(decoded["n"]) is int

    def test_plain_decoding_refuses_other_dtypes_and_huge_integers(self):
        with pytest.raises(WireDecodeError, match="not plain data"):
            decode_value(encode_value(np.zeros(2, dtype=np.float32)),
                         plain=True)
        assert decode_value(encode_value(1 << 8000), plain=True) == 1 << 8000
        with pytest.raises(WireDecodeError, match="1024-byte limit"):
            decode_value(encode_value(1 << 9000), plain=True)

    def test_plain_frames_refuse_deflate(self):
        packed = pack_frame("repro/test", {"zeros": np.zeros(4096)},
                            compress=True)
        assert unpack_frame(packed)[0] == "repro/test"
        with pytest.raises(WireDecodeError, match="deflated"):
            unpack_frame(packed, plain=True)


# ---------------------------------------------- per-spec state round-trips
class TestStateRoundTripEverySpec:
    """``tracker_frame``/``tracker_from_frame`` mid-stream is bit-identical
    for every registered spec: continued answers, message accounting and
    RNG states all match a protocol that was never encoded."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", sorted(HH_SPECS))
    def test_hh_specs(self, spec, seed):
        _, batch, sites = hh_stream(seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK
        reference = _tracker(spec, seed)
        clone = _tracker(spec, seed)
        for begin in range(0, half, CHUNK):
            reference.push_batch(sites[begin:begin + CHUNK],
                                 batch[begin:begin + CHUNK])
            clone.push_batch(sites[begin:begin + CHUNK],
                             batch[begin:begin + CHUNK])
        restored = tracker_from_frame(tracker_frame(clone))
        for begin in range(half, len(batch), CHUNK):
            stop = min(begin + CHUNK, len(batch))
            reference.push_batch(sites[begin:stop], batch[begin:stop])
            restored.push_batch(sites[begin:stop], batch[begin:stop])
        assert restored.protocol.message_counts() \
            == reference.protocol.message_counts()
        assert _rng_states(restored.protocol) == _rng_states(reference.protocol)
        assert restored.query(HeavyHitters(phi=0.06)) \
            == reference.query(HeavyHitters(phi=0.06))
        assert restored.query(TotalWeight()) == reference.query(TotalWeight())

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", sorted(MATRIX_SPECS))
    def test_matrix_specs(self, spec, seed):
        dataset, batch, sites = matrix_stream(seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK
        reference = _tracker(spec, seed, dataset.dimension)
        clone = _tracker(spec, seed, dataset.dimension)
        for begin in range(0, half, CHUNK):
            reference.push_batch(sites[begin:begin + CHUNK],
                                 batch[begin:begin + CHUNK])
            clone.push_batch(sites[begin:begin + CHUNK],
                             batch[begin:begin + CHUNK])
        restored = tracker_from_frame(tracker_frame(clone))
        for begin in range(half, len(batch), CHUNK):
            stop = min(begin + CHUNK, len(batch))
            reference.push_batch(sites[begin:stop], batch[begin:stop])
            restored.push_batch(sites[begin:stop], batch[begin:stop])
        assert restored.protocol.message_counts() \
            == reference.protocol.message_counts()
        assert _rng_states(restored.protocol) == _rng_states(reference.protocol)
        assert np.array_equal(restored.protocol.sketch_matrix(),
                              reference.protocol.sketch_matrix())
        assert restored.query(FrobeniusSquared()) \
            == reference.query(FrobeniusSquared())
        ours = restored.query(Covariance())
        theirs = reference.query(Covariance())
        assert np.array_equal(ours.estimate, theirs.estimate)
        assert ours.error_bound == theirs.error_bound

    def test_state_frame_kind_checked(self):
        from repro.api import CheckpointError

        tracker = repro.Tracker.create("hh/P1", num_sites=2, epsilon=0.5)
        frame = pack_frame("repro/other", {"version": 2})
        with pytest.raises(CheckpointError, match="repro/tracker-payload"):
            tracker_from_frame(frame)
        assert tracker_from_frame(tracker_frame(tracker)).spec == "hh/P1"


class TestFrameKindHardening:
    def test_invalid_utf8_kind_raises_wire_error(self):
        frame = bytearray(pack_frame("kind", 1))
        frame[10:14] = b"\xff\xfe\xfd\xfc"  # kind bytes, not UTF-8
        with pytest.raises(WireDecodeError, match="UTF-8"):
            unpack_frame(bytes(frame))

    def test_corrupt_kind_in_checkpoint_raises_checkpoint_error(self, tmp_path):
        from repro.api import CheckpointError

        tracker = repro.Tracker.create("hh/P1", num_sites=2, epsilon=0.5)
        path = tmp_path / "session.ckpt"
        tracker.save(path)
        data = bytearray(path.read_bytes())
        data[10:13] = b"\xff\xfe\xfd"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            repro.Tracker.load(path)


# ------------------------------------- compressed frames: the raw section
def _split_sectioned(frame: bytes):
    """The body of a sectioned frame split into (tree bytes, section)."""
    _, _, flags, kind_length = struct.unpack_from("<4sHHH", frame, 0)
    assert flags & 0x0002
    body = frame[10 + kind_length + 8:-4]
    (tree_length,) = struct.unpack_from("<Q", body, 0)
    return body[8:8 + tree_length], body[8 + tree_length:]


def _sectioned_frame(tree: bytes, section: bytes = b"", *, version: int = 2,
                     flags: int = 0x0002, tree_length=None) -> bytes:
    body = b"".join((
        struct.pack("<Q", len(tree) if tree_length is None else tree_length),
        tree, section,
    ))
    return b"".join((
        struct.pack("<4sHHH", WIRE_MAGIC, version, flags, 10),
        b"repro/test",
        struct.pack("<Q", len(body)),
        body,
        struct.pack("<I", zlib.crc32(body)),
    ))


def _varint_bytes(value: int) -> bytes:
    out = bytearray()
    while True:
        out.append((value & 0x7F) | (0x80 if value >> 7 else 0))
        value >>= 7
        if not value:
            return bytes(out)


def _section_array_tree(shape, reference) -> bytes:
    """An out-of-band float64 array reference as the encoder writes one,
    for any shape (no array of that shape is ever built)."""
    return (b"\x1c\x03<f8" + _varint_bytes(len(shape))
            + b"".join(_varint_bytes(dim) for dim in shape)
            + encode_value(reference))


def _compressed_roundtrip(value):
    frame = pack_frame("repro/test", value, compress=True)
    return frame, unpack_frame(frame)[1]


def _same_bits(decoded, original):
    assert decoded.dtype == original.dtype.newbyteorder("<")
    assert decoded.shape == original.shape
    assert decoded.tobytes() == np.ascontiguousarray(
        original.astype(decoded.dtype)).tobytes()


def _noisy(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestSectionedFrames:
    """``compress=True``: float64 arrays of at least 1 KiB go raw into a
    trailing section (flag 0x0002) beside the deflated value tree."""

    def test_layout_flags_and_crc(self):
        value = {"big": _noisy(300), "small": _noisy(8)}
        frame, decoded = _compressed_roundtrip(value)
        version, flags = _frame_header(frame)
        assert version == WIRE_VERSION
        assert flags == 0x0003
        tree, section = _split_sectioned(frame)
        assert len(section) == value["big"].nbytes
        assert section == value["big"].tobytes()
        assert zlib.decompressobj().decompress(tree)
        for key in value:
            _same_bits(decoded[key], value[key])
        corrupted = bytearray(frame)
        corrupted[-5] ^= 0x01  # last section byte: the CRC covers it
        with pytest.raises(WireDecodeError, match="CRC"):
            unpack_frame(bytes(corrupted))

    @pytest.mark.parametrize("name, array", [
        ("empty", np.zeros(0)),
        ("empty 2-D", np.zeros((0, 300))),
        ("1-D", _noisy(500)),
        ("2-D", _noisy(40, 30)),
        ("3-D", _noisy(4, 8, 16)),
        ("all zero", np.zeros((40, 30))),
        ("half zero", np.concatenate([np.zeros(150), _noisy(150)])),
        ("trailing zero rows", np.vstack([_noisy(10, 30), np.zeros((30, 30))])),
        ("trailing -0.0 rows", np.vstack([_noisy(10, 30),
                                          np.full((5, 30), -0.0)])),
        ("non-square", _noisy(20, 50)),
        ("float32", _noisy(40, 30).astype(np.float32)),
        ("Fortran order", np.asfortranarray(_noisy(40, 30))),
        ("strided", _noisy(40, 60)[:, ::2]),
        ("big-endian", _noisy(40, 30).astype(">f8")),
        ("inf and nan", np.array([np.inf, -np.inf, np.nan, -0.0] * 100)),
    ])
    def test_arrays_round_trip_bit_identically(self, name, array):
        _, decoded = _compressed_roundtrip({"a": array})
        _same_bits(decoded["a"], array)
        assert decoded["a"].flags.writeable
        assert decoded["a"].flags.owndata

    def test_trailing_negative_zero_rows_are_kept(self):
        array = np.vstack([_noisy(20, 30), np.full((5, 30), -0.0),
                           np.zeros((10, 30))])
        frame, decoded = _compressed_roundtrip({"a": array})
        _, section = _split_sectioned(frame)
        assert len(section) == 25 * 30 * 8
        _same_bits(decoded["a"], array)
        assert np.signbit(decoded["a"][20:25]).all()
        assert not np.signbit(decoded["a"][25:]).any()

    def test_arrays_at_least_half_zero_stay_in_the_deflated_tree(self):
        half = np.concatenate([np.zeros(150), _noisy(150)])
        frame, decoded = _compressed_roundtrip({"a": half, "b": np.eye(44)})
        assert _frame_header(frame) == (WIRE_VERSION, 0x0001)
        _same_bits(decoded["a"], half)
        _same_bits(decoded["b"], np.eye(44))
        frame, _ = _compressed_roundtrip({"a": half[1:]})  # one zero short
        assert _frame_header(frame)[1] & 0x0002

    def test_symmetric_arrays_go_as_their_upper_triangle(self):
        noise = _noisy(44, 44)
        gram = noise + noise.T
        gram[3, 7] = gram[7, 3] = -0.0
        payload = np.uint64(0x7FF8000000000001 + 5)
        nan = np.array([payload], dtype=np.uint64).view(np.float64)[0]
        gram[5, 9] = gram[9, 5] = nan
        frame, decoded = _compressed_roundtrip({"g": gram})
        _, section = _split_sectioned(frame)
        assert len(section) == 44 * 45 // 2 * 8
        _same_bits(decoded["g"], gram)
        assert decoded["g"].flags.owndata

    def test_one_ulp_off_symmetric_is_stored_whole(self):
        noise = _noisy(44, 44)
        gram = noise + noise.T
        gram[2, 6] = np.nextafter(gram[2, 6], np.inf)
        frame, decoded = _compressed_roundtrip({"g": gram})
        _, section = _split_sectioned(frame)
        assert len(section) == gram.nbytes
        _same_bits(decoded["g"], gram)

    def test_shared_array_decodes_to_owned_copies(self):
        array = _noisy(300)
        _, decoded = _compressed_roundtrip({"a": array, "b": [array]})
        assert decoded["a"] is not decoded["b"][0]
        _same_bits(decoded["b"][0], array)
        assert decoded["a"].flags.owndata
        decoded["a"][0] = 1.0  # writable, and not a view of the frame
        _same_bits(decoded["b"][0], array)

    def test_uncompressed_frames_do_not_change(self):
        value = {"a": _noisy(300), "d": {1: 2.0, 3: 4.0}}
        frame = pack_frame("repro/test", value)
        assert _frame_header(frame) == (WIRE_BASE_VERSION, 0)
        # The body is the ordinary encoding: no section.
        assert frame[10 + len("repro/test") + 8:-4] == encode_value(value)

    # -------------------------------------------------------- hostile input
    @pytest.mark.parametrize("shape, reference, phrase", [
        ((4,), (0, 4, 8, 32), "outside"),
        ((4,), (0, 4, 0, 24), "does not match"),
        ((2, 3), (1, 2, 0, 24), "does not fit shape"),
        ((3,), (1, 3, 0, 48), "does not fit shape"),
        ((2, 3), (2, 3, 0, 72), "row count"),
        ((2, 3), (0, 1, 0, 48), "row count"),
        ((4,), (7, 4, 0, 32), "unknown array section form"),
        ((4,), (0, 4.0, 0, 32), "malformed"),
        ((4,), (0, 4, 0), "malformed"),
        ((4,), (0, True, 0, 32), "malformed"),
        ((4,), (0, 4, -8, 32), "outside"),
        ((1 << 40, 1 << 40), (0, 1 << 40, 0, 32), "does not match"),
        ((1 << 40, 1 << 40), (1, 1 << 40, 0, 32), "does not match"),
        ((1 << 40, 1 << 40), (2, 1, 0, 8 << 40), "outside"),
    ])
    def test_bad_references_raise_before_allocating(self, shape, reference,
                                                    phrase):
        frame = _sectioned_frame(_section_array_tree(shape, reference),
                                 bytes(32))
        with pytest.raises(WireDecodeError, match=phrase):
            unpack_frame(frame)

    def test_well_formed_hand_built_reference_decodes(self):
        data = np.arange(1.0, 5.0)
        frame = _sectioned_frame(_section_array_tree((4,), (0, 4, 0, 32)),
                                 data.tobytes())
        assert np.array_equal(unpack_frame(frame)[1], data)

    def test_non_float64_section_array_refused(self):
        tree = b"\x1c\x03<f4" + _varint_bytes(1) + _varint_bytes(8) \
            + encode_value((0, 8, 0, 32))
        with pytest.raises(WireDecodeError, match="float64"):
            unpack_frame(_sectioned_frame(tree, bytes(32)))

    def test_tree_length_overrunning_the_body_refused(self):
        frame = _sectioned_frame(encode_value(None), tree_length=1 << 62)
        with pytest.raises(WireDecodeError, match="overruns"):
            unpack_frame(frame)
        with pytest.raises(WireDecodeError, match="tree length"):
            unpack_frame(_rebuild_with_body(frame, b"\x01\x00"))

    def test_section_flag_on_a_v1_frame_refused(self):
        frame = _sectioned_frame(encode_value(None), version=1)
        with pytest.raises(WireDecodeError, match="unknown flags"):
            unpack_frame(frame)

    def test_plain_mode_refuses_the_flag_and_the_tag(self):
        frame = pack_frame("repro/test", {"a": _noisy(300)}, compress=True)
        assert _frame_header(frame)[1] & 0x0002
        with pytest.raises(WireDecodeError, match="sectioned"):
            unpack_frame(frame, plain=True)
        bare = _sectioned_frame(encode_value(None))
        with pytest.raises(WireDecodeError, match="sectioned"):
            unpack_frame(bare, plain=True)


# ------------------------------------------------------------ ingest frames
def _ingest_body(columns, seq=1, trace=b""):
    """Hand-build an ``ingest`` body: ``columns`` are ``(token, shape,
    payload, storage)`` tuples, laid out as the worker protocol documents."""
    parts = [struct.pack("<QI", seq, len(trace)), trace,
             struct.pack("<B", len(columns))]
    for token, shape, payload, storage in columns:
        parts += [struct.pack("<B", len(token)), token,
                  struct.pack("<BBQ", storage, len(shape), len(payload)),
                  struct.pack(f"<{len(shape)}Q", *shape), payload]
    return b"".join(parts)


def _sites(count):
    return (b"<i8", (count,), np.arange(count, dtype="<i8").tobytes(), 0)


def _rows(count, width):
    return (b"<f8", (count, width), bytes(8 * count * width), 0)


def _ingest_frame(columns, **fields):
    return pack_raw_frame(INGEST_KIND, _ingest_body(columns, **fields))


class TestIngestFrames:
    """The fixed-layout ``repro/worker-command:ingest`` frame: every remote
    shard write, decoded as the ``submit`` of ``_shard_ingest`` it is."""

    BATCHES = {
        "rows": MatrixRowBatch(values=np.arange(12.0).reshape(3, 4)),
        "int labels": WeightedItemBatch.from_pairs([(5, 1.0), (7, 2.5)]),
        "str labels": WeightedItemBatch.from_pairs([("a", 1.0), ("bc", 2.0)]),
        "bool labels": WeightedItemBatch.from_pairs([(True, 1.0)]),
        "object labels": WeightedItemBatch.from_pairs(
            [((1, 2), 1.0), ("x", 0.5), (3, 2.0)]),
    }

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_batches_round_trip_as_submits_of_the_shard_write(self, name,
                                                              compress):
        batch = self.BATCHES[name]
        sites = np.arange(len(batch), dtype=np.int64) % 2
        frame = encode_ingest(sites, batch, seq=9, compress=compress)
        op, fn, (got_sites, got), seq = decode_command(frame)
        assert (op, fn, seq) == ("submit", _shard_ingest, 9)
        assert got_sites.dtype == np.int64
        assert np.array_equal(got_sites, sites)
        assert type(got) is type(batch) and got.sites is None
        for column in ("values",) if name == "rows" else ("elements",
                                                            "weights"):
            ours, theirs = getattr(got, column), getattr(batch, column)
            assert ours.dtype == theirs.dtype and ours.flags.writeable
            assert ours.tobytes() == theirs.tobytes() or (
                ours.dtype == object and list(ours) == list(theirs))

    def test_only_the_shard_write_takes_the_layout(self):
        batch = self.BATCHES["rows"]
        sites = np.zeros(3, dtype=np.int64)
        frame = encode_submit(_shard_ingest, (sites, batch), seq=4)
        assert frame == encode_ingest(sites, batch, seq=4)
        assert frame[10:10 + len(INGEST_KIND)] == INGEST_KIND.encode()
        # The generic form still encodes the same function, with the batch
        # as its columns: frames carry no objects.
        generic = encode_command("submit", _shard_ingest, (batch,), seq=4)
        assert generic[10:10 + len(COMMAND_KIND) + 7] == (
            f"{COMMAND_KIND}:submit".encode())
        op, fn, (decoded,), seq = decode_command(generic)
        assert (op, fn, seq) == ("submit", _shard_ingest, 4)
        assert np.array_equal(decoded["values"], batch.values)

    def test_layout_of_a_one_row_push(self):
        row = MatrixRowBatch(values=np.arange(3.0).reshape(1, 3))
        frame = encode_ingest(np.array([2]), row, seq=7, trace="t1")
        version, flags = struct.unpack_from("<HH", frame, 4)
        assert (version, flags) == (WIRE_BASE_VERSION, 0)
        body = frame[18 + len(INGEST_KIND):-4]
        assert body == _ingest_body([
            (b"<i8", (1,), np.array([2], "<i8").tobytes(), 0),
            (b"<f8", (1, 3), np.arange(3.0).tobytes(), 0)],
            seq=7, trace=b"t1")

    def test_trace_id_is_rebound_and_cleared(self):
        row = self.BATCHES["rows"]
        traced = encode_ingest(np.zeros(3), row, seq=1, trace="abcdef01")
        plain = encode_ingest(np.zeros(3), row, seq=2)
        with trace_context(None):
            decode_command(traced)
            assert current_trace_id() == "abcdef01"
            decode_command(plain)
            assert current_trace_id() is None

    def test_truncated_body_raises(self):
        body = _ingest_body([_sites(2), _rows(2, 3)])
        for cut in (4, 13, 20, len(body) - 1):
            with pytest.raises(WireDecodeError):
                decode_command(pack_raw_frame(INGEST_KIND, body[:cut]))
        frame = _ingest_frame([_sites(2), _rows(2, 3)])
        with pytest.raises(WireDecodeError, match="length mismatch"):
            decode_command(frame[:-9])

    def test_flipped_crc_raises(self):
        frame = bytearray(_ingest_frame([_sites(2), _rows(2, 3)]))
        frame[-1] ^= 0x01
        with pytest.raises(WireDecodeError, match="CRC"):
            decode_command(bytes(frame))

    def test_column_byte_count_must_match_dtype_and_shape(self):
        short = (b"<f8", (2, 3), bytes(40), 0)
        with pytest.raises(WireDecodeError, match="does not match"):
            decode_command(_ingest_frame([_sites(2), short]))

    @pytest.mark.parametrize("token", [b"<V8", b"xyz", b"i8", b"<M8[ns]",
                                       b"\xff"])
    def test_unknown_dtype_token_raises(self, token):
        column = (token, (2,), bytes(16), 0)
        with pytest.raises(WireDecodeError, match="dtype token"):
            decode_command(_ingest_frame([_sites(2), column,
                                          (b"<f8", (2,), bytes(16), 0)]))

    @pytest.mark.parametrize("columns, message", [
        ([_sites(2), (b"<f8", (1 << 62, 1 << 62), bytes(16), 0)],
         "does not match"),
        ([_sites(2), (b"|O", (1 << 40,), encode_value(None), 0),
          (b"<f8", (2,), bytes(16), 0)], "object column"),
        ([_sites(2), (b"<f8", (2, 3, 4), bytes(192), 0)], "rank"),
        ([_sites(2)] * 200, "2 or 3 columns"),
        ([_sites(2), _rows(3, 2)], "float64"),
        ([_sites(2), (b"<f8", (2, 3), struct.pack("<QQ", 0, 48), 1)],
         "out-of-band"),
    ], ids=["huge shape", "huge object shape", "rank", "column count",
            "row count", "reference without a source"])
    def test_hostile_counts_raise_before_allocating(self, columns, message):
        with pytest.raises(WireDecodeError, match=message):
            decode_command(_ingest_frame(columns))

    def test_hostile_lengths_in_the_header_raise(self):
        body = bytearray(_ingest_body([_sites(2), _rows(2, 3)]))
        struct.pack_into("<I", body, 8, 1 << 31)          # trace length
        with pytest.raises(WireDecodeError, match="truncated"):
            decode_command(pack_raw_frame(INGEST_KIND, bytes(body)))
        body = bytearray(_ingest_body([_sites(2), _rows(2, 3)]))
        struct.pack_into("<Q", body, 13 + 4 + 2, 1 << 60)  # sites length
        with pytest.raises(WireDecodeError, match="overruns"):
            decode_command(pack_raw_frame(INGEST_KIND, bytes(body)))

    def test_trailing_bytes_raise(self):
        body = _ingest_body([_sites(2), _rows(2, 3)]) + b"\x00"
        with pytest.raises(WireDecodeError, match="trailing"):
            decode_command(pack_raw_frame(INGEST_KIND, body))


# ------------------------------------------------- hostile names in files
class TestHostileNamesInCheckpoints:
    """A checkpoint file carrying the retired object tags — naming a repro
    class and ``os:system`` — is refused, imports nothing and builds no
    repro object."""

    HOSTILE_DATA = {
        "_network": Obj("os:system", {"command": "true"}),
        "_sites": [Obj("repro.api.tracker:Tracker", {})],
        "_kind": Member("repro.streaming.network:MessageKind", "scalar"),
        "_error": Error("os:system", ("true",)),
        "_class": Cls("repro.streaming.network:Network"),
    }

    @pytest.mark.parametrize("protocol_class", [
        "os:system",
        "repro.api.tracker:Tracker",
        # A class whose version-1 layout converts: its data is still only
        # read as names, and fails to convert.
        "repro.heavy_hitters.p2_threshold:ThresholdedUpdatesProtocol",
    ])
    def test_refused_with_nothing_imported_or_built(self, tmp_path,
                                                    monkeypatch,
                                                    protocol_class):
        import repro.api.legacy  # noqa: F401 - the reader itself may load
        from repro.api import CheckpointError
        from repro.streaming.network import Network as LiveNetwork
        from repro.streaming.protocol import DistributedProtocol

        from old_format import old_state, old_tracker_checkpoint

        built = []
        for cls in (repro.Tracker, DistributedProtocol, LiveNetwork):
            original = cls.__init__
            monkeypatch.setattr(cls, "__init__",
                                lambda self, *a, __init=original, **k: (
                                    built.append(type(self)),
                                    __init(self, *a, **k))[1])
        path = tmp_path / "hostile.ckpt"
        path.write_bytes(old_tracker_checkpoint(
            old_state(protocol_class, 1, dict(self.HOSTILE_DATA))))
        modules = set(sys.modules)
        with pytest.raises(CheckpointError):
            repro.Tracker.load(path)
        assert set(sys.modules) == modules
        assert built == []
