"""Checkpoint/resume equivalence: save mid-stream, resume bit-identically.

The core property of ``repro.api.state``: for **every** registered protocol
spec, a tracker saved mid-stream and loaded back must finish the stream
*bit-identically* to one that never stopped — identical query answers,
identical message accounting (units, kinds, directions and transmission
counts) and identical per-site RNG states.

Streams and site assignments reuse the property harness of
``test_protocol_equivalence_properties`` (seed-parameterized via
``REPRO_PROPERTY_SEEDS``).  The split point is aligned to the tracker chunk
size so the uninterrupted and resumed runs ingest identical site batches —
the same condition under which two ``tracker.run`` instalments equal one.
"""

from __future__ import annotations

import base64
import hashlib
import pickle

import numpy as np
import pytest

import repro
from repro.api import (
    CheckpointError,
    Covariance,
    FrobeniusSquared,
    HeavyHitters,
    TotalWeight,
    available_specs,
    load_protocol,
    save_protocol,
)
from repro.api.state import (
    CHECKPOINT_VERSION,
    protocol_state,
    restorable_params,
    restore_protocol,
    tracker_frame,
    tracker_from_frame,
    tracker_payload,
)
from repro.sketch import FrequentDirections, WeightedMisraGries
from repro.streaming.partition import HashPartitioner
from repro.wire import decode_value, encode_value, pack_frame, unpack_frame

from test_protocol_equivalence_properties import (
    NUM_SITES,
    SEEDS,
    hh_stream,
    matrix_stream,
)

CHUNK = 50          # tracker chunk size; the split point is a multiple of it
HH_EPSILON = 0.1
MATRIX_EPSILON = 0.2

#: Spec -> extra parameters (beyond num_sites/epsilon/dimension); the seed
#: placeholder is filled per test seed for the randomized protocols.
HH_SPECS = {
    "hh/P1": {},
    "hh/P2": {},
    "hh/P2ss": {"site_space": 64},
    "hh/P3": {"sample_size": 150, "seed": None},
    "hh/P3wr": {"num_samplers": 40, "seed": None},
    "hh/P4": {"seed": None},
    "hh/exact": {},
}
MATRIX_SPECS = {
    "matrix/P1": {},
    "matrix/P2": {},
    "matrix/P3": {"sample_size": 100, "seed": None},
    "matrix/P3wr": {"num_samplers": 30, "seed": None},
    "matrix/P4": {"seed": None},
    "matrix/FD": {"sketch_size": 12},
    "matrix/SVD": {},
}


def test_every_registered_spec_is_covered():
    """The round-trip property must cover the whole registry."""
    assert sorted(HH_SPECS) + sorted(MATRIX_SPECS) == available_specs()


def _params(spec: str, seed: int, dimension: int = None) -> dict:
    extra = dict(HH_SPECS[spec] if spec in HH_SPECS else MATRIX_SPECS[spec])
    if "seed" in extra:
        extra["seed"] = seed + 101
    params = {"num_sites": NUM_SITES, **extra}
    if spec.startswith("matrix/"):
        params["dimension"] = dimension
        if spec not in ("matrix/FD", "matrix/SVD"):
            params["epsilon"] = MATRIX_EPSILON
    elif spec != "hh/exact":
        params["epsilon"] = HH_EPSILON
    return params


def _tracker(spec: str, seed: int, dimension: int = None) -> repro.Tracker:
    return repro.Tracker.create(spec, chunk_size=CHUNK,
                                **_params(spec, seed, dimension))


def _run_with_sites(tracker, sites, batch, start, stop):
    for begin in range(start, stop, CHUNK):
        end = min(begin + CHUNK, stop)
        tracker.push_batch(sites[begin:end], batch[begin:end])


def _rng_states(protocol):
    generators = getattr(protocol, "_site_rngs", None)
    if generators is None:
        return None
    return [generator.bit_generator.state for generator in generators]


def _assert_identical_accounting(resumed, uninterrupted):
    assert resumed.items_processed == uninterrupted.items_processed
    assert resumed.total_messages == uninterrupted.total_messages
    assert (resumed.protocol.message_counts()
            == uninterrupted.protocol.message_counts())
    assert _rng_states(resumed.protocol) == _rng_states(uninterrupted.protocol)


class TestHeavyHitterRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", sorted(HH_SPECS))
    def test_save_load_mid_stream_is_bit_identical(self, spec, seed, tmp_path):
        _, batch, sites = hh_stream(seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK

        uninterrupted = _tracker(spec, seed)
        _run_with_sites(uninterrupted, sites, batch, 0, half)
        _run_with_sites(uninterrupted, sites, batch, half, len(batch))

        interrupted = _tracker(spec, seed)
        _run_with_sites(interrupted, sites, batch, 0, half)
        path = tmp_path / "session.ckpt"
        interrupted.save(path)
        resumed = repro.Tracker.load(path)
        assert resumed.spec == spec
        assert resumed.items_processed == half
        # The live tracker keeps running: saving must not disturb it.
        _run_with_sites(interrupted, sites, batch, half, len(batch))
        _run_with_sites(resumed, sites, batch, half, len(batch))

        for finished in (interrupted, resumed):
            _assert_identical_accounting(finished, uninterrupted)
            assert (finished.protocol.estimates()
                    == uninterrupted.protocol.estimates())
            assert (finished.query(HeavyHitters(phi=0.06))
                    == uninterrupted.query(HeavyHitters(phi=0.06)))
            assert (finished.query(TotalWeight())
                    == uninterrupted.query(TotalWeight()))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_resume_through_tracker_run_partitioner_continues(self, seed):
        """``tracker.run`` instalments split at chunk boundaries resume the
        round-robin assignment exactly, across a save/load."""
        _, batch, _ = hh_stream(seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK

        uninterrupted = _tracker("hh/P3", seed)
        uninterrupted.run(batch[:half])
        uninterrupted.run(batch[half:])

        state = pickle.loads(pickle.dumps(uninterrupted))  # sanity: picklable
        assert state.total_messages == uninterrupted.total_messages

        resumed = _tracker("hh/P3", seed)
        resumed.run(batch[:half])
        payload = encode_value(resumed.protocol.state_dict())
        resumed.protocol.load_state_dict(decode_value(payload))
        resumed.run(batch[half:])
        assert resumed.total_messages == uninterrupted.total_messages
        assert resumed.protocol.estimates() == uninterrupted.protocol.estimates()


class TestHashPartitionedCheckpoint:
    """A default-key ``HashPartitioner`` checkpoints as ``{"kind": "hash"}``
    and the loaded session keeps routing exactly as the saved one; a custom
    key is a function, so saving refuses it by class name."""

    @staticmethod
    def _tracker(partitioner):
        return repro.Tracker.create("hh/P2", num_sites=3, epsilon=0.1,
                                    partitioner=partitioner)

    def test_default_key_resumes_bit_identically(self, tmp_path):
        rng = np.random.default_rng(2015)
        stream = [(int(element), float(weight)) for element, weight in zip(
            rng.zipf(1.5, size=600) % 97, rng.uniform(0.5, 2.0, size=600))]
        live = self._tracker(HashPartitioner(3))
        live.run(stream[:300])
        path = tmp_path / "hash.ckpt"
        live.save(path)
        loaded = repro.Tracker.load(path)
        assert loaded.partitioner.state_dict() == {"kind": "hash"}
        assert tracker_frame(loaded) == tracker_frame(live)
        for session in (live, loaded):
            session.run(stream[300:])
        assert tracker_frame(loaded) == tracker_frame(live)
        assert loaded.query(HeavyHitters(phi=0.05)) == \
            live.query(HeavyHitters(phi=0.05))
        assert _rng_states(loaded.protocol) == _rng_states(live.protocol)

    def test_custom_key_is_refused_by_class_name(self, tmp_path):
        tracker = self._tracker(HashPartitioner(3, key=lambda item: item[0]))
        tracker.run([(1, 1.0), (2, 2.0)])
        with pytest.raises(TypeError, match="HashPartitioner"):
            tracker.save(tmp_path / "custom.ckpt")


class TestMatrixRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", sorted(MATRIX_SPECS))
    def test_save_load_mid_stream_is_bit_identical(self, spec, seed, tmp_path):
        dataset, batch, sites = matrix_stream(seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK

        uninterrupted = _tracker(spec, seed, dataset.dimension)
        _run_with_sites(uninterrupted, sites, batch, 0, half)
        _run_with_sites(uninterrupted, sites, batch, half, len(batch))

        interrupted = _tracker(spec, seed, dataset.dimension)
        _run_with_sites(interrupted, sites, batch, 0, half)
        path = tmp_path / "session.ckpt"
        interrupted.save(path)
        resumed = repro.Tracker.load(path)
        _run_with_sites(resumed, sites, batch, half, len(batch))

        _assert_identical_accounting(resumed, uninterrupted)
        assert np.array_equal(resumed.protocol.sketch_matrix(),
                              uninterrupted.protocol.sketch_matrix())
        assert (resumed.query(FrobeniusSquared()).estimate
                == uninterrupted.query(FrobeniusSquared()).estimate)
        ours = resumed.query(Covariance())
        theirs = uninterrupted.query(Covariance())
        assert np.array_equal(ours.estimate, theirs.estimate)
        assert ours.error_bound == theirs.error_bound


ALL_SPECS = sorted(HH_SPECS) + sorted(MATRIX_SPECS)


def _stream(spec: str, seed: int):
    """``(dimension, batch, sites)`` of the property stream for ``spec``."""
    if spec.startswith("hh/"):
        _, batch, sites = hh_stream(seed)
        return None, batch, sites
    dataset, batch, sites = matrix_stream(seed)
    return dataset.dimension, batch, sites


def _answers(session, spec: str) -> list:
    """Every answer of the spec's domain, arrays as their bytes."""
    if spec.startswith("hh/"):
        return [session.query(HeavyHitters(phi=0.06)),
                session.query(TotalWeight())]
    covariance = session.query(Covariance())
    return [covariance.estimate.tobytes(), covariance.error_bound,
            covariance.items_processed, covariance.total_messages,
            session.query(FrobeniusSquared())]


class TestDeclaredState:
    """A checkpoint is the declared tree, not the objects' attributes."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_checkpoint_trees_are_plain_containers_numbers_and_arrays(
            self, spec):
        seed = SEEDS[0]
        dimension, batch, sites = _stream(spec, seed)
        tracker = _tracker(spec, seed, dimension)
        _run_with_sites(tracker, sites, batch, 0,
                        (len(batch) // (2 * CHUNK)) * CHUNK)
        plain = (type(None), bool, int, float, str, np.ndarray, np.generic)
        stack = [tracker_payload(tracker)]
        while stack:
            value = stack.pop()
            if isinstance(value, dict):
                assert all(isinstance(key, str) for key in value) \
                    or spec in ("hh/P4",), value.keys()
                stack.extend(value.values())
            elif isinstance(value, (list, tuple)):
                stack.extend(value)
            else:
                assert isinstance(value, plain), type(value)

    def test_renaming_a_private_attribute_changes_no_checkpoint_byte(
            self, monkeypatch):
        """The names in a checkpoint are declared, not attribute names: a
        protocol class whose private attributes are renamed writes the same
        bytes (and reads them back)."""
        from repro.heavy_hitters import p2_threshold

        def session():
            tracker = repro.Tracker.create("hh/P2", num_sites=3, epsilon=0.1)
            tracker.push_batch([0, 1, 2, 0], [("a", 2.0), ("b", 1.0),
                                              ("a", 4.0), ("c", 3.0)])
            return tracker

        before = tracker_frame(session())

        # Every read and write of the attribute lands on a new name.
        monkeypatch.setattr(
            p2_threshold.ThresholdedUpdatesProtocol, "_element_estimates",
            property(lambda self: self._estimates_by_element,
                     lambda self, value: setattr(
                         self, "_estimates_by_element", value)),
            raising=False)
        renamed = session()
        assert "_element_estimates" not in vars(renamed.protocol)
        assert "_estimates_by_element" in vars(renamed.protocol)
        assert tracker_frame(renamed) == before
        restored = tracker_from_frame(before)
        assert restored.protocol.estimates() == renamed.protocol.estimates()


class TestCheckpointCompression:
    """``save(compress=...)``: v1 files keep loading, deflated files resume
    bit-identically, and there is no lossy mode."""

    @pytest.mark.parametrize("compress", [True, False])
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_every_spec_resumes_identically_from_either_kind(
            self, spec, compress, tmp_path):
        seed = SEEDS[0]
        dimension, batch, sites = _stream(spec, seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK

        uninterrupted = _tracker(spec, seed, dimension)
        _run_with_sites(uninterrupted, sites, batch, 0, len(batch))

        interrupted = _tracker(spec, seed, dimension)
        _run_with_sites(interrupted, sites, batch, 0, half)
        path = tmp_path / "session.ckpt"
        interrupted.save(path, compress=compress)
        if not compress:
            # What a build before the raw section wrote, bit for bit.
            assert self._header_version(path) == 1
        resumed = repro.Tracker.load(path)
        _run_with_sites(resumed, sites, batch, half, len(batch))

        _assert_identical_accounting(resumed, uninterrupted)
        assert (vars(resumed.protocol._network.log)
                == vars(uninterrupted.protocol._network.log))
        assert _answers(resumed, spec) == _answers(uninterrupted, spec)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_every_spec_resumes_identically_from_a_cluster_checkpoint(
            self, spec, backend, tmp_path):
        seed = SEEDS[0]
        dimension, batch, _ = _stream(spec, seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK

        def cluster():
            return repro.ShardedTracker.create(
                spec, shards=2, backend=backend, chunk_size=CHUNK,
                **_params(spec, seed, dimension))

        with cluster() as whole:
            whole.run(batch[:half])
            whole.run(batch[half:])
            expected = _answers(whole, spec)
            expected_stats = whole.stats()
        path = tmp_path / "cluster.ckpt"
        with cluster() as first_leg:
            first_leg.run(batch[:half])
            first_leg.save(path)
        with repro.ShardedTracker.load(path) as resumed:
            resumed.run(batch[half:])
            assert _answers(resumed, spec) == expected
            stats = resumed.stats()
            assert stats.per_shard == expected_stats.per_shard
            assert stats.message_counts == expected_stats.message_counts

    @staticmethod
    def _header_version(path):
        import struct

        with open(path, "rb") as handle:
            header = handle.read(6)
        return struct.unpack("<4sH", header)[1]

    @pytest.mark.parametrize("seed", SEEDS[:1])
    def test_plain_v1_and_compressed_v2_resume_identically(self, seed, tmp_path):
        dataset, batch, sites = matrix_stream(seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK

        uninterrupted = _tracker("matrix/P1", seed, dataset.dimension)
        _run_with_sites(uninterrupted, sites, batch, 0, half)
        _run_with_sites(uninterrupted, sites, batch, half, len(batch))

        interrupted = _tracker("matrix/P1", seed, dataset.dimension)
        _run_with_sites(interrupted, sites, batch, 0, half)
        plain = tmp_path / "plain.ckpt"
        deflated = tmp_path / "deflated.ckpt"
        interrupted.save(plain, compress=False)
        interrupted.save(deflated)  # compression is the default
        # The uncompressed file is a base-version frame — exactly what a
        # pre-compression build wrote, pinning forward-loadability.
        assert self._header_version(plain) == 1

        for path in (plain, deflated):
            resumed = repro.Tracker.load(path)
            _run_with_sites(resumed, sites, batch, half, len(batch))
            _assert_identical_accounting(resumed, uninterrupted)
            assert np.array_equal(resumed.protocol.sketch_matrix(),
                                  uninterrupted.protocol.sketch_matrix())

    @pytest.mark.parametrize("seed", SEEDS[:1])
    def test_compressed_checkpoint_is_smaller(self, seed, tmp_path):
        _, batch, sites = hh_stream(seed)
        tracker = _tracker("hh/P2", seed)
        _run_with_sites(tracker, sites, batch, 0, len(batch))
        plain = tmp_path / "plain.ckpt"
        deflated = tmp_path / "deflated.ckpt"
        tracker.save(plain, compress=False)
        tracker.save(deflated, compress=True)
        assert deflated.stat().st_size < plain.stat().st_size

    def test_float32_checkpoint_from_the_last_build_with_the_codec_is_refused(
            self, tmp_path):
        """``save(float32=True)`` is gone: it broke bit-identical resume.  A
        file the last build that had it (``d7db0fc``) wrote — ``matrix/P2``,
        2 sites, 4 rows of dimension 3 — fails loudly, it never loads."""
        path = tmp_path / "f32.ckpt"
        path.write_bytes(base64.b64decode(_PARENT_FLOAT32_CHECKPOINT))
        with pytest.raises(CheckpointError, match="0x1B"):
            repro.Tracker.load(path)
        tracker = _tracker("hh/P2", SEEDS[0])
        with pytest.raises(TypeError):
            tracker.save(path, float32=True)
        with pytest.raises(TypeError):
            save_protocol(tracker.protocol, path, float32=True)


_PARENT_FLOAT32_CHECKPOINT = """
UlBXMQIAAQAYAHJlcHJvL3RyYWNrZXItY2hlY2twb2ludOACAAAAAAAAeJytVctuEzEU
ncRD3EnL0BJakLpAPNUFakUXCFVFaUhZ8VDUSmwtx+OmVjJ2anvSggR0x2fQPUs+AL6A
D2CFhPgLJLjOTCahJCKVGmnijOeec8+5vnMTlrBvupzhIKZWi6O1xjoudammsQkRDmQS
EyMsN6jopR8cRCLm0gglERrsYd41oqPkhfT+exWX2X4i24B9zZE3n4XNArEVFqBchz5G
rGMqa5p3tVo1VnMaC9lazWM2dlQiox3VFLIxxOGLxlLLSY/rvobCQMNlpuIuREg7eGZm
C7PFMycYMvoRtTQs4DIZU4YZILWKqc7AyJM0T1pGYjVl7X62dRJxyzWkFsYKtrE9erct
NGcubyNjO5M9BPaun7YnuT1Uur3xIl1zBohdmRRbV3GcSMGok/JMtUZB5+PrdFXDCVUl
maTF//oah0cd1Vqc2mVprs15l4BSpSNTxNmPshcQww8SLhlHQcYcEkBaQ5qvCNiPQrR0
a1Ka59wY2uJPIQyXDKMdqpGf0UyJ6kHxlM7fr+lQQVMrGjFqbJ6uMlQdDU4kLC7dmESX
HxuuuMISqwhTUBMhqdODB3qmIRgBOh7Hl+sKXR9JEwvTb+S8yiUiZFMdlT08TyA+NgTS
MPDIoxwLjTNmAs2Qf0bQFaKahusej8BEj2pB4UCX0ebewyJC/m3P+/XY8+brnneznq53
4drM7t36so6XhxzmIKEa1j2tmlyKxKSZTt5tYeiXXkRiFXHs08QqXEr7slxcvD/l20N2
AbDrXn1/zID1tTqEvlyQSruWBx8kbazMrecFVnVJ082zfOtccxfSwhWQP/f2w7Xq8Z0H
j75+K3yeTtHxSeP3p48/qvgS4ZARBEEdHXJYwuUMTuK0ow2x+8IQ7fADJR5eSDcMccOw
Ayai4ehYGG1V0heN+qKd5jTmuApfWyObX7agU+Dyavlm/c3V2s+de7X3K7UarvzFadrc
sn34tzs9nP8Are8p9X+pUkI=
"""


#: The specs that took ``svd_mode``, and its recorded values by outcome.
SVD_MODE_SPECS = ("matrix/P1", "matrix/P2", "matrix/FD")
SAME_KERNEL_MODES = ("auto", "gram")
RETIRED_KERNEL_MODES = ("exact", "randomized")


class TestRestorableParams:
    def test_params_without_svd_mode_pass_through(self):
        params = {"num_sites": 3, "dimension": 4, "epsilon": 0.2}
        assert restorable_params(params, "payload") is params

    @pytest.mark.parametrize("mode", (None,) + SAME_KERNEL_MODES)
    def test_same_kernel_mode_is_dropped(self, mode):
        params = {"num_sites": 3, "svd_mode": mode, "dimension": 4}
        assert restorable_params(params, "payload") == {"num_sites": 3,
                                                        "dimension": 4}
        assert params["svd_mode"] == mode   # the checkpoint's dict is kept

    @pytest.mark.parametrize("mode", RETIRED_KERNEL_MODES + ("fast",))
    def test_other_modes_are_refused_by_name(self, mode):
        with pytest.raises(CheckpointError,
                           match=f"cannot restore shard 3: .*svd_mode={mode!r}"):
            restorable_params({"num_sites": 3, "svd_mode": mode}, "shard 3")


@pytest.mark.parametrize("spec", SVD_MODE_SPECS)
class TestRetiredSvdMode:
    """Checkpoints written while the FD kernel was the ``svd_mode`` knob
    record it among their params.  ``auto`` and ``gram`` ran the kernel
    this build runs and resume bit-identically; ``exact`` ran ``gesdd`` on
    half-size buffers, ``randomized`` a range finder, and both are refused
    by name."""

    @staticmethod
    def _with_svd_mode(frame: bytes, mode: str) -> bytes:
        """A tracker frame as a build with the knob wrote it: ``svd_mode``
        in the session's and the protocol's params."""
        kind, payload = unpack_frame(frame)
        payload["params"]["svd_mode"] = mode
        payload["protocol"]["params"]["svd_mode"] = mode
        return pack_frame(kind, payload, compress=True)

    def _cluster_with_svd_mode(self, path, mode: str) -> None:
        kind, payload = unpack_frame(path.read_bytes())
        payload["params"]["svd_mode"] = mode
        payload["shard_payloads"] = [self._with_svd_mode(frame, mode)
                                     for frame in payload["shard_payloads"]]
        path.write_bytes(pack_frame(kind, payload, compress=False))

    def _tracker_checkpoint(self, spec: str, mode: str, tmp_path):
        dataset, batch, sites = matrix_stream(SEEDS[0])
        half = (len(batch) // (2 * CHUNK)) * CHUNK
        interrupted = _tracker(spec, SEEDS[0], dataset.dimension)
        _run_with_sites(interrupted, sites, batch, 0, half)
        path = tmp_path / "session.ckpt"
        interrupted.save(path)
        path.write_bytes(self._with_svd_mode(path.read_bytes(), mode))
        return path, (dataset, batch, sites, half)

    @staticmethod
    def _cluster(spec: str, dimension: int):
        return repro.ShardedTracker.create(
            spec, shards=2, backend="serial", chunk_size=CHUNK,
            **_params(spec, SEEDS[0], dimension))

    def _cluster_checkpoint(self, spec: str, mode: str, tmp_path):
        dataset, batch, _ = matrix_stream(SEEDS[0])
        half = (len(batch) // (2 * CHUNK)) * CHUNK
        path = tmp_path / "cluster.ckpt"
        with self._cluster(spec, dataset.dimension) as first_leg:
            first_leg.run(batch[:half])
            first_leg.save(path)
        self._cluster_with_svd_mode(path, mode)
        return path, (dataset, batch, half)

    @pytest.mark.parametrize("mode", SAME_KERNEL_MODES)
    def test_same_kernel_in_a_tracker_checkpoint_resumes_bit_identically(
            self, spec, mode, tmp_path):
        path, (dataset, batch, sites, half) = self._tracker_checkpoint(
            spec, mode, tmp_path)
        uninterrupted = _tracker(spec, SEEDS[0], dataset.dimension)
        _run_with_sites(uninterrupted, sites, batch, 0, len(batch))

        resumed = repro.Tracker.load(path)
        assert "svd_mode" not in resumed.params
        _run_with_sites(resumed, sites, batch, half, len(batch))
        assert (hashlib.sha256(tracker_frame(resumed)).hexdigest()
                == hashlib.sha256(tracker_frame(uninterrupted)).hexdigest())

    @pytest.mark.parametrize("mode", RETIRED_KERNEL_MODES)
    def test_retired_kernel_in_a_tracker_checkpoint_is_refused(
            self, spec, mode, tmp_path):
        path, _ = self._tracker_checkpoint(spec, mode, tmp_path)
        with pytest.raises(CheckpointError, match=f"svd_mode={mode!r}"):
            repro.Tracker.load(path)

    @pytest.mark.parametrize("mode", SAME_KERNEL_MODES)
    def test_same_kernel_in_a_cluster_checkpoint_resumes_bit_identically(
            self, spec, mode, tmp_path):
        path, (dataset, batch, half) = self._cluster_checkpoint(
            spec, mode, tmp_path)
        expected = tmp_path / "whole.ckpt"
        with self._cluster(spec, dataset.dimension) as whole:
            whole.run(batch[:half])
            whole.run(batch[half:])
            whole.save(expected)
        resumed_path = tmp_path / "resumed.ckpt"
        with repro.ShardedTracker.load(path) as resumed:
            assert "svd_mode" not in resumed.params
            resumed.run(batch[half:])
            resumed.save(resumed_path)
        assert (hashlib.sha256(resumed_path.read_bytes()).hexdigest()
                == hashlib.sha256(expected.read_bytes()).hexdigest())

    @pytest.mark.parametrize("mode", RETIRED_KERNEL_MODES)
    def test_retired_kernel_in_a_cluster_checkpoint_is_refused(
            self, spec, mode, tmp_path):
        path, _ = self._cluster_checkpoint(spec, mode, tmp_path)
        with pytest.raises(CheckpointError, match=f"svd_mode={mode!r}"):
            repro.ShardedTracker.load(path)

    @pytest.mark.parametrize("mode", RETIRED_KERNEL_MODES)
    def test_retired_kernel_in_a_shard_frame_alone_is_refused(
            self, spec, mode, tmp_path):
        path, _ = self._cluster_checkpoint(spec, "auto", tmp_path)
        kind, payload = unpack_frame(path.read_bytes())
        payload["shard_payloads"][1] = self._with_svd_mode(
            payload["shard_payloads"][1], mode)
        path.write_bytes(pack_frame(kind, payload, compress=False))
        with pytest.raises(CheckpointError, match=f"svd_mode={mode!r}"):
            repro.ShardedTracker.load(path)


class TestProtocolCheckpointHelpers:
    def test_save_load_protocol_without_session(self, tmp_path):
        protocol = repro.create("hh/P4", num_sites=3, epsilon=0.1, seed=5)
        protocol.observe_batch([0, 1, 2], [("a", 2.0), ("b", 1.0), ("a", 4.0)])
        path = tmp_path / "protocol.ckpt"
        save_protocol(protocol, path)
        clone = load_protocol(path)
        assert type(clone) is type(protocol)
        assert clone.message_counts() == protocol.message_counts()
        assert clone.estimates() == protocol.estimates()
        assert _rng_states(clone) == _rng_states(protocol)

    def test_checkpoint_rejects_garbage_and_wrong_versions(self, tmp_path):
        from repro.wire import pack_frame

        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            repro.Tracker.load(path)
        # Right frame kind, wrong checkpoint payload version.
        path.write_bytes(pack_frame("repro/tracker-checkpoint",
                                    {"version": CHECKPOINT_VERSION + 1}))
        with pytest.raises(CheckpointError, match="version"):
            repro.Tracker.load(path)
        # Wrong frame kind entirely.
        path.write_bytes(pack_frame("repro/other", {"version": 1}))
        with pytest.raises(CheckpointError, match="repro/tracker-checkpoint"):
            repro.Tracker.load(path)

    def test_pre_wire_pickle_checkpoints_are_refused_by_name(self, tmp_path):
        """Old pickle checkpoints never load; the error says what they are."""
        protocol = repro.create("hh/P2", num_sites=3, epsilon=0.1)
        protocol.observe_batch([0, 1, 2], [("a", 2.0), ("b", 1.0), ("a", 4.0)])
        tracker = repro.Tracker(protocol)
        # A pre-wire checkpoint, as earlier releases wrote it.
        from repro.api.state import tracker_payload
        payload = tracker_payload(tracker)
        payload["format"] = "repro/tracker-checkpoint"
        payload["version"] = CHECKPOINT_VERSION
        path = tmp_path / "legacy.ckpt"
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)

        with pytest.raises(CheckpointError, match="pre-wire pickle"):
            repro.Tracker.load(path)

    def test_checkpoint_files_contain_no_pickle_payloads(self, tmp_path):
        """The acceptance criterion in file form: a fresh checkpoint is one
        wire frame, not a pickle stream."""
        from repro.wire import is_wire_data

        tracker = repro.Tracker.create("hh/P2", num_sites=3, epsilon=0.1)
        tracker.run([("a", 2.0), ("b", 1.0)])
        path = tmp_path / "session.ckpt"
        tracker.save(path)
        data = path.read_bytes()
        assert is_wire_data(data)
        assert not data.startswith(b"\x80")  # no pickle PROTO opcode
        assert b"repro/tracker-checkpoint" in data[:64]


class TestStateDicts:
    def test_sketch_state_roundtrip_continues_identically(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((120, 6))
        sketch = FrequentDirections(dimension=6, sketch_size=4)
        sketch.append_batch(rows[:60])
        clone = FrequentDirections(dimension=6, sketch_size=4)
        clone.load_state_dict(decode_value(encode_value(sketch.state_dict())))
        sketch.append_batch(rows[60:])
        clone.append_batch(rows[60:])
        assert np.array_equal(sketch.sketch_matrix(), clone.sketch_matrix())
        assert sketch.shrinkage == clone.shrinkage

        summary = WeightedMisraGries(num_counters=4)
        summary.update_batch(["a", "b", "c", "a"], [3.0, 2.0, 1.0, 5.0])
        twin = WeightedMisraGries(num_counters=4)
        twin.load_state_dict(decode_value(encode_value(summary.state_dict())))
        for target in (summary, twin):
            target.update("d", 7.0)
        assert summary.to_dict() == twin.to_dict()
        assert summary.shrink_total == twin.shrink_total

    def test_a_state_of_another_layout_version_is_refused_by_class(self):
        protocol = repro.create("hh/P1", num_sites=2, epsilon=0.2)
        protocol.observe_batch([0, 1], [("a", 1.0), ("b", 2.0)])
        checkpoint = protocol_state(protocol)
        checkpoint["state_version"] += 1
        with pytest.raises(CheckpointError, match="BatchedMisraGriesProtocol"):
            restore_protocol(checkpoint)

    def test_a_state_of_other_parameters_is_refused(self):
        protocol = repro.create("hh/P1", num_sites=2, epsilon=0.2)
        checkpoint = protocol_state(protocol)
        checkpoint["params"]["num_sites"] = 3
        with pytest.raises(CheckpointError):
            restore_protocol(checkpoint)

    def test_protocols_built_outside_the_registry_cannot_be_saved(
            self, tmp_path):
        from repro.heavy_hitters import BatchedMisraGriesProtocol

        with pytest.raises(TypeError, match="repro.create"):
            save_protocol(BatchedMisraGriesProtocol(2, 0.2),
                          tmp_path / "p.ckpt")

    def test_restored_state_is_isolated_from_the_live_object(self):
        counter = WeightedMisraGries(num_counters=3)
        counter.update("x", 1.0)
        frame = encode_value(counter.state_dict())
        counter.update("y", 2.0)
        clone = WeightedMisraGries(num_counters=3)
        clone.load_state_dict(decode_value(frame))
        assert clone.to_dict() == {"x": 1.0}
        other = WeightedMisraGries(num_counters=3)
        other.load_state_dict(decode_value(frame))
        other.update("z", 9.0)
        assert clone.to_dict() == {"x": 1.0}


class TestGeneratorSeeds:
    def test_a_generator_seed_saves_resumes_and_records_no_seed(
            self, tmp_path):
        """A ``Generator`` seed is not plain data: the checkpoint records
        ``seed=None`` and the site generators' states, so the session still
        resumes bit-identically."""
        _, batch, sites = hh_stream(SEEDS[0])
        half = (len(batch) // (2 * CHUNK)) * CHUNK

        def tracker():
            return repro.Tracker.create(
                "hh/P3", chunk_size=CHUNK, num_sites=NUM_SITES,
                epsilon=HH_EPSILON, sample_size=150,
                seed=np.random.default_rng(9))

        uninterrupted = tracker()
        _run_with_sites(uninterrupted, sites, batch, 0, len(batch))
        interrupted = tracker()
        _run_with_sites(interrupted, sites, batch, 0, half)
        interrupted.save(tmp_path / "session.ckpt")
        resumed = repro.Tracker.load(tmp_path / "session.ckpt")
        assert resumed.params["seed"] is None
        assert resumed.protocol.build_spec[1].get("seed") is None
        _run_with_sites(resumed, sites, batch, half, len(batch))
        _assert_identical_accounting(resumed, uninterrupted)
        assert _answers(resumed, "hh/P3") == _answers(uninterrupted, "hh/P3")
