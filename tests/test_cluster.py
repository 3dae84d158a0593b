"""The ``repro.cluster`` subsystem: backends, sharding, merging, checkpoints.

Correctness anchors:

* **Single-shard bit-identity** — for *every* registered protocol spec and
  *every* concrete ``Query`` kind, a ``ShardedTracker(shards=1)``, a plain
  ``Tracker`` and ``query.combine([query.materials(protocol)])`` must agree
  field for field over the same stream, every kind must have a gateway
  route, and both facades must refuse a wrong-domain query with one text.
* **Site sharding** — shard ``s`` of ``S`` *is* an independent ``Tracker``
  over the sites ``s, s+S, …`` fed ``(site div S, item)``, for every spec,
  and the threshold protocols spend one coordinator's messages at any ``S``.
* **Merged paper bounds** — with ``N ≥ 2`` shards, heavy-hitter estimates
  stay within the summed per-shard budget ``Σ_s ε·W_s = ε·W`` on the
  property-harness streams, every true φ-heavy hitter is still reported,
  and merged covariance errors respect the summed ``Σ_s ε·F̂_s`` bound.
* **Backend equivalence** — the ``thread``, ``process`` and ``socket``
  backends must reproduce the ``serial`` backend exactly (same shard
  trackers, same FIFO order per shard); for the multi-host ``socket``
  backend the serial == socket bit-identity is pinned for **every**
  registered spec over localhost workers.
* **Cluster checkpoint/resume** — one versioned file restores every shard
  bit-identically, under the saving backend or any other.

Streams reuse the seed-parameterized property harness
(``REPRO_PROPERTY_SEEDS``).
"""

from __future__ import annotations

import base64
import dataclasses

import numpy as np
import pytest

import repro
from repro.api import (
    ApproximationError,
    CheckpointError,
    Covariance,
    Frequency,
    FrobeniusSquared,
    HeavyHitters,
    Norms,
    Query,
    SketchMatrix,
    TotalWeight,
    available_backends,
    available_specs,
)
from repro.cluster import (
    BackendError,
    ShardedTracker,
    WorkerServer,
    create_backend,
    get_backend_spec,
    merge_counter_maps,
    shard_of_rows,
)
from repro.cluster.backends import SerialBackend
from repro.cluster.merge import merge_message_counts
from repro.api.state import tracker_frame
from repro.cluster.sharded_tracker import _SEED_STRIDE
from repro.gateway.http import Request
from repro.streaming.items import MatrixRowBatch, WeightedItemBatch
from repro.gateway.server import QUERY_KINDS
from repro.utils.linalg import covariance_error
from repro.cluster.worker_protocol import (
    encode_ingest,
    unpack_reply,
    worker_command,
)
from repro.wire import WireDecodeError, encode_value

from test_api_state_roundtrip import (
    CHUNK,
    HH_EPSILON,
    HH_SPECS,
    MATRIX_EPSILON,
    MATRIX_SPECS,
    _params,
)
from test_protocol_equivalence_properties import (
    NUM_SITES,
    SEEDS,
    hh_stream,
    matrix_stream,
)

BACKENDS = available_backends()

@pytest.fixture(scope="module")
def worker_server():
    """One embedded localhost worker, shared by the socket-backend tests
    (every accepted connection is an independent shard session)."""
    with WorkerServer() as server:
        yield server


def _backend_options(name, worker_server):
    if name == "socket":
        return {"addresses": [worker_server.address]}
    if name == "socket-zlib":
        return {"addresses": [worker_server.address], "compress": True}
    return {}


def _backend_name(name):
    """Map a parametrized transport variant to its registered backend."""
    return {"socket-zlib": "socket"}.get(name, name)


def _plain(spec: str, seed: int, dimension=None) -> repro.Tracker:
    return repro.Tracker.create(spec, chunk_size=CHUNK,
                                **_params(spec, seed, dimension))


def _cluster(spec: str, seed: int, shards: int, dimension=None,
             backend: str = "serial", backend_options=None) -> ShardedTracker:
    return ShardedTracker.create(spec, shards=shards, backend=backend,
                                 chunk_size=CHUNK,
                                 backend_options=backend_options,
                                 **_params(spec, seed, dimension))


def _count_submits(cluster):
    """Count the sub-batches ``cluster`` routes to each shard from here on."""
    routed = [0] * cluster.num_shards
    submit = cluster._backend.submit

    def counting_submit(shard, fn, *args):
        routed[shard] += 1
        submit(shard, fn, *args)

    cluster._backend.submit = counting_submit
    return routed


def _assert_watermarks(cluster, routed):
    """After a barrier every remote handle has stamped, and had applied,
    exactly the sub-batches routed to its shard."""
    for handle in cluster._backend._shards:
        assert handle.acked_seq == handle.sent_seq == routed[handle.index] > 0


def _assert_same_answer(ours, theirs):
    assert type(ours) is type(theirs)
    assert np.array_equal(np.asarray(ours.estimate, dtype=object)
                          if isinstance(ours.estimate, tuple)
                          else np.asarray(ours.estimate),
                          np.asarray(theirs.estimate, dtype=object)
                          if isinstance(theirs.estimate, tuple)
                          else np.asarray(theirs.estimate))
    assert ours.error_bound == theirs.error_bound
    assert ours.items_processed == theirs.items_processed
    assert ours.total_messages == theirs.total_messages


def _assert_every_field_equal(ours, theirs):
    assert type(ours) is type(theirs)
    for field in dataclasses.fields(ours):
        mine, other = getattr(ours, field.name), getattr(theirs, field.name)
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, other), field.name
        else:
            assert mine == other, field.name


def _hh_probes(sample):
    probe = max(sample.element_weights, key=sample.element_weights.get)
    return [HeavyHitters(phi=0.06), TotalWeight(), Frequency(element=probe)]


def _matrix_probes(dimension):
    return [Covariance(), FrobeniusSquared(), SketchMatrix(),
            Norms(np.eye(dimension)[0]), Norms(np.eye(dimension)[:3]),
            ApproximationError()]


def _assert_one_read_path(plain, cluster, query):
    """Tracker == combine([materials]) == 1-shard cluster, field for field."""
    answer = plain.query(query)
    _assert_every_field_equal(
        answer, query.combine([query.materials(plain.protocol)]))
    _assert_every_field_equal(answer, cluster.query(query))


# --------------------------------------------------------------- sharding
class TestShardAssignment:
    def test_row_deal_continues_across_blocks(self):
        together = shard_of_rows(0, 10, 3)
        split = np.concatenate([shard_of_rows(0, 4, 3), shard_of_rows(4, 6, 3)])
        assert np.array_equal(together, split)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_of_rows(0, 3, 0)

    def test_merge_counter_maps_sums_overlaps(self):
        merged = merge_counter_maps([{"a": 1.0, "b": 2.0}, {"b": 3.0}])
        assert merged == {"a": 1.0, "b": 5.0}


# --------------------------------------------------------------- backends
class TestBackendRegistry:
    def test_registry_contents(self):
        assert BACKENDS == ["process", "serial", "shm", "socket", "thread"]
        assert get_backend_spec("SERIAL").backend_class is SerialBackend

    def test_unknown_backend_named_in_error(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            get_backend_spec("rpc")

    @pytest.mark.parametrize("name", BACKENDS)
    def test_submit_call_fifo_and_close(self, name, worker_server):
        backend = create_backend(name, **_backend_options(name, worker_server))
        backend.launch([lambda: repro.Tracker.create(
            "hh/P1", num_sites=2, epsilon=0.5)] if name == "serial" else
            [_build_tiny_tracker])
        backend.submit(0, _push_one, "a", 2.0)
        backend.submit(0, _push_one, "b", 1.0)
        assert backend.call(0, _estimate_of, "a") == 2.0  # FIFO: pushes first
        assert backend.call_all(_estimate_of, "b") == [1.0]
        backend.close()
        backend.close()  # idempotent

    @pytest.mark.parametrize("name", ["thread", "process", "shm", "socket"])
    def test_worker_failure_surfaces_as_backend_error(self, name, worker_server):
        backend = create_backend(name, **_backend_options(name, worker_server))
        backend.launch([_build_tiny_tracker])
        backend.submit(0, _raise_worker_error)
        with pytest.raises(BackendError, match="boom"):
            backend.call(0, _estimate_of, "a")
        # The worker survives a failed submit and keeps serving.
        assert backend.call(0, _estimate_of, "missing") == 0.0
        backend.close()

    def test_process_call_all_stays_in_sync_after_an_error(self):
        """A deferred shard error must not leave unread replies behind:
        the round after a failed call_all must return that round's own
        answers, not the previous round's (regression test)."""
        backend = create_backend("process")
        backend.launch([_build_tiny_tracker, _build_tiny_tracker])
        backend.submit(0, _raise_worker_error)
        with pytest.raises(BackendError, match="boom"):
            backend.call_all(_estimate_of, "a")
        backend.submit(0, _push_one, "fresh", 3.0)
        assert backend.call_all(_estimate_of, "fresh") == [3.0, 0.0]
        backend.close()

    def test_thread_launch_fails_when_a_builder_fails(self):
        """A shard without a tracker must fail launch (as process/shm/socket
        do), not come up and serve ``fn(None, ...)`` from the second call."""
        backend = create_backend("thread")
        with pytest.raises(BackendError,
                           match="shard 1 failed to start.*no tracker"):
            backend.launch([_build_tiny_tracker, _raise_builder_error])
        with pytest.raises(BackendError, match="closed"):
            backend.call(0, _estimate_of, "a")

    @pytest.mark.parametrize("name", BACKENDS)
    def test_use_after_close_is_a_backend_error(self, name, worker_server):
        backend = create_backend(name, **_backend_options(name, worker_server))
        backend.launch([_build_tiny_tracker])
        backend.close()
        with pytest.raises(BackendError, match="backend is closed"):
            backend.call(0, _estimate_of, "a")
        with pytest.raises(BackendError, match="backend is closed"):
            backend.submit(0, _push_one, "a", 1.0)


# The backend tests run this module's own shard commands and builders on
# remote workers; the declarations reach the fork-started process workers
# and the embedded in-process socket workers alike.
@worker_command(launch=True)
def _build_tiny_tracker() -> repro.Tracker:
    return repro.Tracker.create("hh/P1", num_sites=2, epsilon=0.5)


@worker_command(launch=True)
def _raise_builder_error() -> repro.Tracker:
    raise RuntimeError("no tracker")


@worker_command
def _push_one(tracker, element, weight) -> None:
    tracker.push(0, (element, weight))


@worker_command
def _estimate_of(tracker, element) -> float:
    return float(tracker.protocol.estimate(element))


@worker_command
def _raise_worker_error(tracker) -> None:
    raise RuntimeError("boom")


# ----------------------------------------- single-shard == plain tracker
class TestSingleShardBitIdentity:
    def test_every_registered_spec_is_covered(self):
        assert sorted(HH_SPECS) + sorted(MATRIX_SPECS) == available_specs()

    def test_every_query_kind_is_probed_and_routed(self):
        """A new ``Query`` subclass must join the probes below and get a
        gateway route, or this fails — kinds cannot drift apart unseen."""
        kinds = set(Query.__subclasses__())
        sample, _, _ = hh_stream(SEEDS[0])
        probed = {type(query): query
                  for query in _hh_probes(sample) + _matrix_probes(3)}
        assert set(probed) == kinds
        assert {cls.domain for cls in kinds} == {"hh", "matrix"}
        request = Request(method="POST", target="/", path="/",
                          params={"element": "7"})
        body = {"directions": [1.0, 0.0, 0.0]}
        routed = {type(builder(request, body))
                  for builder in QUERY_KINDS.values()}
        assert routed == kinds

    @pytest.mark.parametrize("spec", ["hh/P1", "matrix/P1"])
    def test_wrong_domain_query_refused_with_one_text(self, spec):
        wrong = Covariance() if spec.startswith("hh/") else TotalWeight()
        plain = _plain(spec, SEEDS[0], dimension=3)
        with pytest.raises(TypeError) as from_tracker:
            plain.query(wrong)
        with _cluster(spec, SEEDS[0], shards=1, dimension=3) as cluster:
            with pytest.raises(TypeError) as from_cluster:
                cluster.query(wrong)
        assert str(from_tracker.value) == str(from_cluster.value)
        assert type(wrong).__name__ in str(from_tracker.value)
        assert spec in str(from_tracker.value)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", sorted(HH_SPECS))
    def test_hh_answers_and_accounting_identical(self, spec, seed):
        sample, batch, _ = hh_stream(seed)
        plain = _plain(spec, seed)
        plain.run(batch)
        with _cluster(spec, seed, shards=1) as cluster:
            cluster.run(batch)
            for query in _hh_probes(sample):
                _assert_one_read_path(plain, cluster, query)
            stats = cluster.stats()
            assert stats.items_processed == plain.items_processed
            assert stats.total_messages == plain.total_messages
            assert stats.message_counts == plain.protocol.message_counts()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", sorted(MATRIX_SPECS))
    def test_matrix_answers_and_accounting_identical(self, spec, seed):
        dataset, batch, _ = matrix_stream(seed)
        plain = _plain(spec, seed, dataset.dimension)
        plain.run(batch)
        with _cluster(spec, seed, shards=1,
                      dimension=dataset.dimension) as cluster:
            cluster.run(batch)
            for query in _matrix_probes(dataset.dimension):
                _assert_one_read_path(plain, cluster, query)
            stats = cluster.stats()
            assert stats.total_messages == plain.total_messages
            assert stats.message_counts == plain.protocol.message_counts()

    def test_round_robin_continues_after_explicit_pushes_like_tracker_run(
            self):
        """The site deal counts every item, as ``Tracker.run`` continues
        from ``items_processed`` whoever chose the earlier items' sites."""
        seed = SEEDS[0]
        sample, batch, _ = hh_stream(seed)
        plain = _plain("hh/P2", seed)
        with _cluster("hh/P2", seed, shards=1) as cluster:
            for session in (plain, cluster):
                session.push(3, ("x", 1.0))
                session.push(3, ("y", 2.0))
                session.run(batch)
            for query in _hh_probes(sample):
                _assert_one_read_path(plain, cluster, query)


# ------------------------------------------------------- one-item pushes
def _state_frame(tracker) -> bytes:
    return tracker_frame(tracker, compress=False)


@worker_command
def _protocol_frame(tracker) -> bytes:
    # The protocol's declared state alone.
    return encode_value(tracker.protocol.state_dict())


def _spec_stream(spec, seed):
    """``(batch, sites, dimension, probes)``: the property-harness stream."""
    if spec in HH_SPECS:
        sample, batch, sites = hh_stream(seed)
        return batch, sites, None, _hh_probes(sample)
    dataset, batch, sites = matrix_stream(seed)
    return batch, sites, dataset.dimension, _matrix_probes(dataset.dimension)


class TestOneItemPushes:
    """A one-item push runs the per-item ``process`` wherever it lands, with
    the column elements the batch kernel would see."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
    def test_one_shard_cluster_equals_tracker_push(self, spec, backend, seed):
        batch, sites, dimension, probes = _spec_stream(spec, seed)
        plain = _plain(spec, seed, dimension)
        with _cluster(spec, seed, shards=1, dimension=dimension,
                      backend=backend) as cluster:
            for index in range(len(batch)):
                plain.push(int(sites[index]), batch[index])
                cluster.push(int(sites[index]), batch[index])
            for query in probes:
                _assert_every_field_equal(plain.query(query),
                                          cluster.query(query))
            assert cluster._backend.call(0, _protocol_frame) == \
                _protocol_frame(plain)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", ["hh/P2", "matrix/P2"])
    def test_checkpoint_bytes_match_a_one_item_batch_kernel(self, spec, seed):
        batch, sites, dimension, _ = _spec_stream(spec, seed)
        kernel, pushed = (_plain(spec, seed, dimension) for _ in range(2))
        columns = kernel.protocol._unpack_batch(batch)
        for index in range(len(batch)):
            kernel.protocol.process_batch(
                int(sites[index]),
                *(column[index:index + 1] for column in columns))
            pushed.push_batch(sites[index:index + 1], batch[index:index + 1])
        assert _state_frame(pushed) == _state_frame(kernel)


#: One bad site of each kind: out of range (the ``push_batch`` message),
#: or not an integer at all (never truncated to one).
_BAD_SITES = [(-1, ValueError), (NUM_SITES, ValueError), (3.7, TypeError),
              ("1", TypeError), (np.float64(2.0), TypeError),
              (True, TypeError)]


class TestBatchSiteColumns:
    """A batch's own ``sites`` column follows the ``site_ids`` rule:
    integers only, never truncated, refused before any state moves."""

    @pytest.mark.parametrize("site", [3.7, 2.9, True, np.float64(1.0)])
    def test_fractional_and_bool_sites_are_refused(self, site):
        items = [repro.WeightedItem("a", 1.0, site=0),
                 repro.WeightedItem("b", 2.0, site=site)]
        tracker = repro.Tracker.create("hh/P2", num_sites=4, epsilon=0.1)
        with pytest.raises(TypeError, match="integer"):
            tracker.run(items)
        with pytest.raises(TypeError, match="integer"):
            tracker.push_batch([0, 1], WeightedItemBatch.from_items(items))
        with pytest.raises(TypeError, match="integer"):
            tracker.run(WeightedItemBatch(elements=["a", "b"],
                                          weights=[1.0, 2.0],
                                          sites=[0, site]))
        with pytest.raises(TypeError, match="integer"):
            tracker.run(MatrixRowBatch(values=np.eye(2), sites=[0, site]))
        assert tracker.items_processed == 0
        with ShardedTracker.create("hh/P2", shards=2, num_sites=4,
                                   epsilon=0.1) as cluster:
            with pytest.raises(TypeError, match="integer"):
                cluster.push_batch(items)
            assert cluster.watermark == (0, 0)
            assert cluster.stats().items_processed == 0

    def test_integer_sites_still_route(self):
        items = [repro.WeightedItem("a", 1.0, site=np.int64(3)),
                 repro.WeightedItem("b", 2.0, site=1)]
        tracker = repro.Tracker.create("hh/P2", num_sites=4, epsilon=0.1)
        tracker.run(items)
        with ShardedTracker.create("hh/P2", shards=2, num_sites=4,
                                   epsilon=0.1) as cluster:
            cluster.push_batch(items)
            assert cluster.watermark == (0, 2)
        assert tracker.items_processed == 2


class TestSeeds:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("seed", [np.random.default_rng(1),
                                      np.random.SeedSequence(1), 1.5, True],
                             ids=["Generator", "SeedSequence", "float",
                                  "bool"])
    def test_a_seed_no_shard_can_derive_from_is_refused_before_launch(
            self, backend, seed, monkeypatch):
        from repro.cluster import sharded_tracker

        def no_backend(*args, **kwargs):
            raise AssertionError("a backend was created")

        monkeypatch.setattr(sharded_tracker, "create_backend", no_backend)
        with pytest.raises(TypeError, match="seed"):
            ShardedTracker.create("hh/P3", shards=2, backend=backend,
                                  num_sites=4, epsilon=0.2, seed=seed)

    def test_numpy_integer_seeds_derive_shard_seeds(self):
        with ShardedTracker.create("hh/P3", shards=2, num_sites=4,
                                   epsilon=0.2, seed=np.int64(5)) as ours, \
                ShardedTracker.create("hh/P3", shards=2, num_sites=4,
                                      epsilon=0.2, seed=5) as theirs:
            for cluster in (ours, theirs):
                cluster.push_batch([("a", 1.0), ("b", 2.0)] * 20)
            assert ours.query(TotalWeight()) == theirs.query(TotalWeight())


class TestRejectedOneItemPushes:
    """A refused push changes nothing, on either facade, for every spec."""

    @pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
    def test_bad_site_is_refused_before_any_state_moves(self, spec):
        seed = SEEDS[0]
        batch, sites, dimension, _ = _spec_stream(spec, seed)
        plain = _plain(spec, seed, dimension)
        with _cluster(spec, seed, shards=2, dimension=dimension) as cluster:
            for index in range(20):
                plain.push(int(sites[index]), batch[index])
                cluster.push(int(sites[index]), batch[index])

            def state():
                return (_state_frame(plain), plain.items_processed,
                        plain.watermark,
                        [cluster._backend.call(shard, _protocol_frame)
                         for shard in range(cluster.num_shards)],
                        cluster.stats().items_processed, cluster.watermark)

            before = state()
            item, one = batch[20], batch[20:21]
            shapes = [one]
            if dimension is not None:
                shapes.append(one.values)  # the gateway writer's (1, d) rows
            for site, error in _BAD_SITES:
                message = (r"site indices must lie in \[0, 5\)"
                           if error is ValueError else "integer")
                for push in (plain.push, cluster.push):
                    with pytest.raises(error, match=message):
                        push(site, item)
                with pytest.raises(error, match=message):
                    plain.push_batch([site], one)
                for rows in shapes:
                    with pytest.raises(error, match=message):
                        cluster.push_batch(rows, site_ids=[site])
                assert state() == before, site

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("row, message", [
        ([1.0, float("nan"), 0.0], "values contains non-finite entries"),
        ([1.0, 2.0], "rows has 2 columns but the stream dimension is 3"),
        ([[1.0, 2.0, 3.0]],
         r"values must be two-dimensional, got shape \(1, 1, 3\)"),
    ], ids=["non-finite", "narrow", "nested"])
    def test_bad_row_is_refused_before_any_state_moves(self, backend, row,
                                                       message):
        with ShardedTracker.create("matrix/P2", shards=2, backend=backend,
                                   num_sites=3, dimension=3,
                                   epsilon=0.1) as cluster:
            cluster.push(1, [1.0, 2.0, 3.0])
            before = (cluster.stats().per_shard, cluster.watermark)
            with pytest.raises(ValueError, match=message):
                cluster.push(1, row)
            if np.ndim(row) == 1:
                with pytest.raises(ValueError, match=message):
                    cluster.push_batch(np.array([row]), site_ids=[1])
            assert (cluster.stats().per_shard, cluster.watermark) == before

    @pytest.mark.parametrize("item, message", [
        (("a", float("inf")), "weights contains non-finite entries"),
        (("a", -1.0), "weights must be strictly positive everywhere"),
        (("a", 1.0, 2), "too many values to unpack"),
    ], ids=["infinite", "negative", "triple"])
    def test_bad_pair_is_refused_before_any_state_moves(self, item, message):
        with ShardedTracker.create("hh/P2", shards=2, num_sites=3,
                                   epsilon=0.1) as cluster:
            cluster.push(1, ("a", 1.0))
            before = (cluster.stats().per_shard, cluster.watermark)
            with pytest.raises(ValueError, match=message):
                cluster.push(1, item)
            assert (cluster.stats().per_shard, cluster.watermark) == before


class TestOneItemFrames:
    """One-item pushes build their batch directly, yet ship the ``ingest``
    frame the generic batch path builds, byte for byte."""

    @staticmethod
    def _frames(cluster, action):
        sent = []
        cluster._backend.submit = lambda shard, fn, *args: sent.append(
            (shard, encode_ingest(*args, seq=1)))
        action()
        return sent

    @pytest.mark.parametrize("item", [
        ("cat", 2.5), (7, 1.0), (np.int64(7), 3.0), (2.5, 1.0),
        (("a", 1), 2.0), "bare", repro.WeightedItem("dog", 4.0),
    ], ids=["str", "int", "np-int", "float", "tuple", "bare", "item"])
    def test_hh_push(self, item):
        with ShardedTracker.create("hh/P1", shards=2, num_sites=4,
                                   epsilon=0.1) as cluster:
            sent = self._frames(cluster, lambda: cluster.push(3, item))
        if isinstance(item, repro.WeightedItem):
            batch = WeightedItemBatch.from_items([item])
        else:
            batch = WeightedItemBatch.from_pairs(
                [item if isinstance(item, tuple) else (item, 1.0)])
        assert sent == [(1, encode_ingest(np.asarray([1]), batch, seq=1))]

    @pytest.mark.parametrize("push", ["list", "float32", "row", "batch"])
    def test_matrix_push(self, push):
        values = [0.5, -1.0, 2.0]
        with ShardedTracker.create("matrix/P1", shards=2, num_sites=4,
                                   dimension=3, epsilon=0.1) as cluster:
            sent = self._frames(cluster, {
                "list": lambda: cluster.push(2, values),
                "float32": lambda: cluster.push(
                    2, np.asarray(values, dtype=np.float32)),
                "row": lambda: cluster.push(2, repro.MatrixRow(values)),
                "batch": lambda: cluster.push_batch(np.array([values]),
                                                    site_ids=[2]),
            }[push])
        batch = MatrixRowBatch.from_rows([values])
        assert sent == [(0, encode_ingest(np.asarray([1]), batch, seq=1))]


# ------------------------------------- shard s == Tracker over its sites
def _stream_for(spec, seed, num_sites=NUM_SITES):
    """``(batch, round-robin sites, dimension, probes, truth)`` for ``spec``."""
    if spec.startswith("matrix/"):
        dataset, batch, sites = matrix_stream(seed, num_sites)
        return (batch, sites, dataset.dimension,
                _matrix_probes(dataset.dimension), dataset)
    sample, batch, sites = hh_stream(seed, num_sites)
    return batch, sites, None, _hh_probes(sample), sample


class TestSiteSharding:
    @pytest.mark.parametrize("skewed", [False, True],
                             ids=["round-robin", "skewed-site-ids"])
    @pytest.mark.parametrize("shards", [2, 3])  # 3 does not divide m = 5
    @pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
    def test_cluster_equals_independent_trackers_over_its_site_groups(
            self, spec, shards, skewed):
        seed = SEEDS[0]
        batch, sites, dimension, probes, _ = _stream_for(spec, seed)
        if skewed:  # site 0 sees half the stream, site 1 a quarter, ...
            sites = np.minimum(np.random.default_rng(seed).geometric(
                0.5, len(batch)) - 1, NUM_SITES - 1)
        independents = []
        for shard in range(shards):
            params = _params(spec, seed, dimension)
            params["num_sites"] = len(range(shard, NUM_SITES, shards))
            if "seed" in params:
                params["seed"] += shard * _SEED_STRIDE
            independents.append(
                repro.Tracker.create(spec, chunk_size=CHUNK, **params))
        with _cluster(spec, seed, shards, dimension) as cluster:
            for start in range(0, len(batch), CHUNK):
                chunk = batch[start:start + CHUNK]
                chunk_sites = sites[start:start + CHUNK]
                cluster.push_batch(chunk,
                                   site_ids=chunk_sites if skewed else None)
                for shard, tracker in enumerate(independents):
                    mine = np.nonzero(chunk_sites % shards == shard)[0]
                    if len(mine):
                        tracker.push_batch(chunk_sites[mine] // shards,
                                           chunk.take(mine))
            stats = cluster.stats()
            assert stats.per_shard == tuple(
                (tracker.items_processed, tracker.total_messages)
                for tracker in independents)
            assert stats.message_counts == merge_message_counts(
                tracker.protocol.message_counts() for tracker in independents)
            for query in probes:
                _assert_every_field_equal(
                    cluster.query(query),
                    query.combine([query.materials(tracker.protocol)
                                   for tracker in independents]))

    # ``*/P3`` and ``*/P3wr`` are left out on purpose: every shard still
    # draws its own s = O(1/ε²) sample, so they stay near S× one
    # coordinator's messages (ROADMAP stretch: "sampling shards that share
    # one sample").  ``matrix/P2`` gets 1.10: each shard warms its own F̂ up
    # from zero, which on this 400-row stream is worth up to 6 % at S = 4
    # (3 % by 4 000 rows); the row-dealt layout read 1.3-2.2× here.
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec, ceiling", [
        ("hh/P1", 1.05), ("hh/P2", 1.05),
        ("matrix/P1", 1.05), ("matrix/P2", 1.10),
    ])
    def test_messages_do_not_grow_with_shards(self, spec, ceiling, seed):
        num_sites = 8
        batch, _, dimension, _, truth = _stream_for(spec, seed, num_sites)
        params = dict(_params(spec, seed, dimension), num_sites=num_sites)
        messages = {}
        for shards in (1, 2, 4):
            with ShardedTracker.create(spec, shards=shards, chunk_size=CHUNK,
                                       **params) as cluster:
                for start in range(0, len(batch), CHUNK):
                    cluster.push_batch(batch[start:start + CHUNK])
                messages[shards] = cluster.stats().total_messages
                if dimension is None:
                    for element, weight in truth.element_weights.items():
                        answer = cluster.query(Frequency(element=element))
                        assert abs(answer.estimate - weight) \
                            <= answer.error_bound + 1e-9, (shards, element)
                else:
                    answer = cluster.query(Covariance())
                    error = np.linalg.norm(
                        truth.rows.T @ truth.rows - answer.estimate, ord=2)
                    assert error <= answer.error_bound + 1e-6, shards
        assert messages[2] <= ceiling * messages[1], messages
        assert messages[4] <= ceiling * messages[1], messages


# ------------------------------------------------- merged bounds, N >= 2
class TestMergedBounds:
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", ["hh/P1", "hh/P2", "hh/P2ss"])
    def test_hh_estimates_within_summed_budget(self, spec, seed, shards):
        """Per-shard guarantees of ε·W_s sum to ε·W for the whole stream."""
        sample, batch, _ = hh_stream(seed)
        with _cluster(spec, seed, shards=shards) as cluster:
            cluster.run(batch)
            budget = HH_EPSILON * sample.total_weight + 1e-9
            for element, weight in sample.element_weights.items():
                merged = cluster.query(Frequency(element=element)).estimate
                assert abs(merged - weight) <= budget, element
            answer = cluster.query(HeavyHitters(phi=0.06))
            # The reported (summed) bound is consistent with ε·Ŵ.
            assert answer.error_bound == pytest.approx(
                HH_EPSILON * answer.estimated_total_weight)
            # Lemma 1 through the merge: every true hitter is reported.
            reported = set(answer.elements)
            assert set(sample.heavy_hitters(0.06)) <= reported

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", ["matrix/P1", "matrix/P2"])
    def test_matrix_covariance_within_summed_bound(self, spec, seed, shards):
        dataset, batch, _ = matrix_stream(seed)
        with _cluster(spec, seed, shards=shards,
                      dimension=dataset.dimension) as cluster:
            cluster.run(batch)
            answer = cluster.query(Covariance())
            exact = dataset.rows.T @ dataset.rows
            error = np.linalg.norm(exact - answer.estimate, ord=2)
            assert error <= answer.error_bound + 1e-6
            # The summed bound is still the paper's ε·F̂ scale.
            fhat = cluster.query(FrobeniusSquared()).estimate
            assert answer.error_bound == pytest.approx(MATRIX_EPSILON * fhat)
            # matrix/P2 serves the merged err from its sites' residuals: it
            # is the stream's own and within the normalised bound.  P1's
            # state proves no error, so it serves none.
            err = cluster.query(ApproximationError())
            if spec == "matrix/P2":
                sketch = cluster.query(SketchMatrix()).estimate
                assert err.estimate == pytest.approx(
                    covariance_error(dataset.rows, sketch), rel=1e-12)
                assert err.estimate <= err.error_bound + 1e-9
            else:
                assert err.estimate is None and err.error_bound is None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sketch_matrix_stacks_shard_sketches(self, seed):
        dataset, batch, _ = matrix_stream(seed)
        with _cluster("matrix/P1", seed, shards=3,
                      dimension=dataset.dimension) as cluster:
            cluster.run(batch)
            stacked = cluster.query(SketchMatrix()).estimate
            norms = cluster.query(Norms(np.eye(dataset.dimension)[1]))
            x = np.eye(dataset.dimension)[1]
            assert float(np.linalg.norm(stacked @ x) ** 2) == pytest.approx(
                norms.estimate)


# -------------------------------------------------- backend equivalence
class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", [
        "thread", "process", "shm", "socket", "socket-zlib",
    ])
    @pytest.mark.parametrize("spec", ["hh/P2", "hh/P3", "matrix/P1"])
    def test_backend_reproduces_serial(self, spec, backend, worker_server):
        seed = SEEDS[0]
        dimension = None
        if spec.startswith("matrix/"):
            dataset, batch, _ = matrix_stream(seed)
            dimension = dataset.dimension
            queries = [Covariance(), FrobeniusSquared()]
        else:
            _, batch, _ = hh_stream(seed)
            queries = [HeavyHitters(phi=0.06), TotalWeight()]
        with _cluster(spec, seed, shards=2, dimension=dimension) as reference:
            reference.run(batch)
            reference_stats = reference.stats()
            reference_answers = [reference.query(query) for query in queries]
        with _cluster(spec, seed, shards=2, dimension=dimension,
                      backend=_backend_name(backend),
                      backend_options=_backend_options(backend, worker_server),
                      ) as cluster:
            cluster.run(batch)
            stats = cluster.stats()
            assert stats.total_messages == reference_stats.total_messages
            assert stats.message_counts == reference_stats.message_counts
            assert stats.per_shard == reference_stats.per_shard
            for query, expected in zip(queries, reference_answers):
                _assert_same_answer(cluster.query(query), expected)

    @pytest.mark.parametrize("backend", [
        "process", "shm", "socket", "socket-zlib",
    ])
    def test_remote_handles_stamp_submits_and_record_the_watermark(
            self, backend, worker_server):
        _, batch, _ = hh_stream(SEEDS[0])
        with _cluster("hh/P2", SEEDS[0], shards=2,
                      backend=_backend_name(backend),
                      backend_options=_backend_options(backend, worker_server),
                      ) as cluster:
            routed = _count_submits(cluster)
            for start in range(0, len(batch), CHUNK):
                cluster.push_batch(batch[start:start + CHUNK])
            cluster.flush()
            _assert_watermarks(cluster, routed)


# ------------------------------------------------- cluster checkpoints
#: ``ShardedTracker.create("hh/P1", shards=2, num_sites=2, epsilon=0.5)``
#: after ``push_batch([("a", 2.0), ("b", 1.0), ("c", 1.0)])``, saved by
#: commit 8a1338d (cluster checkpoint version 1: element-hashed shards, each
#: a full 2-site coordinator).
_PARENT_V1_CLUSTER_CHECKPOINT = (
    "UlBXMQIAAQAYAHJlcHJvL2NsdXN0ZXItY2hlY2twb2ludAsDAAAAAAAAeJztVU1vEzEQ3d2k"
    "8Sal25YQrghxQQJS9RoOjaASByiKWokeLa/XylrJ2ovttIRbfwAH/iE/oQd+ALPZj2zTpE1a"
    "QAIllyT2mzfzxmM/r47QGVOaS1GxrfSDqjpmFG2E4V5vH9ViokikPQfVxSjCmhumK04ORSzW"
    "fCjFRvr/xwGq6ZCooAzxCR0wEcAOU5wMUYOGIzEApq+sYu1kqG0lzzUOuI6JoSELKlYe/4CL"
    "PtMGs1jScFqkN8mDYzIeShLohuNebB/3TvcTQMtSLFZyz6gktXqVgT6hNNbbWCTxupx5oucK"
    "2AQSww00kimviip0qJt7kzLa2ihGIpDRLjCdYzkSwbH0uehN49CWNsQwfO1EHlIZxYAQJt/T"
    "m/ams3KC0hkHxBDPRg08R6ALpEZSOcyFvE7zhIycjXHIjYEi2vE+9tPDwlG/8yb9ecS1Iu8U"
    "Z7qXcawkqgqiXmSiBgwY21FCiPsJY+eU8X5oykkKNoh7MtsMwcy5VIPOx/S7jH2+CPtWRtFI"
    "cEqShn2Q/XLQfbow2/nGgs7jrJDWrWrmxVeGst9aWlvtwYCxGCtGJdxYB2U/GlYda/Z5xARl"
    "BbOHIdJo7I/xgIvAcx4/W5TmiGlN+uw9wBDSoygialzwLBdW9xXcV0q0KQKb0wICDpUmGqCK"
    "p4voDnMQaiY9wkZiKkEeF8RINa1nGYJSYMKT8JUaA6+M0DCmkwku1muYC19+aVhoBwM+0hjS"
    "UNAIb1sxCy6+9uDsYOnDQ3kG83Q+Gfds6/IAbU1OnMLFTiavUs1ZaukUNJzWy9snFJ8A9iS5"
    "kU5+OK1Vblx1QRX1YsmztqBLhgyvCrBgWYeKw8s52S2Wd1MYiICBg8kTQbH13wlCj8pTiP9Q"
    "vTayaTE2c2tPlufWjppXCpwdwV1c3MzZvcvv7qX77TYP9tcevPZga+3Bq3hwfsPv68E5z8oe"
    "nAf+Zg8u6rmrB08bc9WD8/WbPLh03Et7sNtde/C/L+jveLCDbJKn7CLbv9mP3e4d/BjGcaEf"
    "u93Di5/qFysTxQmAIA5A"
)


#: Seeds of the declared-state resume suite.
RESUME_SEEDS = (2014, 2015, 2016)


def _logged_plain(spec, seed, dimension):
    return repro.Tracker.create(spec, chunk_size=CHUNK,
                                keep_message_records=True,
                                **_params(spec, seed, dimension))


class TestDeclaredStateResume:
    """A session restored from the declared checkpoint is the session that
    never stopped: message logs, answers and state bytes, then continued
    ingestion, for every spec, per item and in chunks, on every backend."""

    @pytest.mark.parametrize("compress", [True, False])
    @pytest.mark.parametrize("mode", ["item", "chunk"])
    @pytest.mark.parametrize("seed", RESUME_SEEDS)
    @pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
    def test_tracker_resumes_bit_identically(self, spec, seed, mode,
                                             compress, tmp_path):
        batch, sites, dimension, probes = _spec_stream(spec, seed)
        stop = min(len(batch), 600)
        half = stop // 2

        def feed(tracker, start, end):
            if mode == "item":
                for index in range(start, end):
                    tracker.push(int(sites[index]), batch[index])
            else:
                for begin in range(start, end, CHUNK):
                    close = min(begin + CHUNK, end)
                    tracker.push_batch(sites[begin:close], batch[begin:close])

        whole, first_leg = (_logged_plain(spec, seed, dimension)
                            for _ in range(2))
        feed(whole, 0, stop)
        feed(first_leg, 0, half)
        first_leg.save(tmp_path / "session.ckpt", compress=compress)
        resumed = repro.Tracker.load(tmp_path / "session.ckpt")
        assert _state_frame(resumed) == _state_frame(first_leg)
        feed(resumed, half, stop)
        assert (resumed.protocol.network.log.records
                == whole.protocol.network.log.records)
        assert vars(resumed.protocol.network.log) \
            == vars(whole.protocol.network.log)
        for query in probes:
            _assert_every_field_equal(resumed.query(query), whole.query(query))
        assert _state_frame(resumed) == _state_frame(whole)

    @pytest.mark.parametrize("backend", ["thread", "shm", "socket"])
    @pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
    def test_cluster_resumes_bit_identically(self, spec, backend,
                                             worker_server, tmp_path):
        """``serial`` and ``process`` run in test_api_state_roundtrip."""
        seed = RESUME_SEEDS[0]
        batch, _, dimension, probes = _spec_stream(spec, seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK
        options = _backend_options(backend, worker_server)

        def cluster():
            return ShardedTracker.create(
                spec, shards=2, backend=backend, chunk_size=CHUNK,
                backend_options=options, keep_message_records=True,
                **_params(spec, seed, dimension))

        with cluster() as whole:
            whole.run(batch)
            expected = [whole.query(query) for query in probes]
            states = whole._backend.call_all(_protocol_frame)
        with cluster() as first_leg:
            first_leg.run(batch[:half])
            first_leg.save(tmp_path / "cluster.ckpt")
        with ShardedTracker.load(tmp_path / "cluster.ckpt", backend=backend,
                                 backend_options=options) as resumed:
            resumed.run(batch[half:])
            for query, answer in zip(probes, expected):
                _assert_every_field_equal(resumed.query(query), answer)
            assert resumed._backend.call_all(_protocol_frame) == states


class TestClusterCheckpoint:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", ["hh/P2ss", "hh/P3", "matrix/P1"])
    def test_save_load_mid_stream_is_bit_identical(self, spec, seed, tmp_path):
        dimension = None
        if spec.startswith("matrix/"):
            dataset, batch, _ = matrix_stream(seed)
            dimension = dataset.dimension
            query = Covariance()
        else:
            _, batch, _ = hh_stream(seed)
            query = HeavyHitters(phi=0.06)
        half = (len(batch) // (2 * CHUNK)) * CHUNK

        with _cluster(spec, seed, shards=2, dimension=dimension) as whole:
            whole.run(batch[:half])
            whole.run(batch[half:])
            expected = whole.query(query)
            expected_stats = whole.stats()

        with _cluster(spec, seed, shards=2, dimension=dimension) as first_leg:
            first_leg.run(batch[:half])
            path = tmp_path / "cluster.ckpt"
            first_leg.save(path)

        resumed = ShardedTracker.load(path)
        with resumed:
            assert resumed.spec == spec
            assert resumed.num_shards == 2
            resumed.run(batch[half:])
            _assert_same_answer(resumed.query(query), expected)
            stats = resumed.stats()
            assert stats.total_messages == expected_stats.total_messages
            assert stats.message_counts == expected_stats.message_counts

    def test_restore_under_a_different_backend(self, tmp_path):
        seed = SEEDS[0]
        _, batch, _ = hh_stream(seed)
        with _cluster("hh/P2", seed, shards=2, backend="process") as cluster:
            cluster.run(batch)
            expected = cluster.query(TotalWeight())
            path = tmp_path / "cluster.ckpt"
            cluster.save(path)
        with ShardedTracker.load(path, backend="serial") as restored:
            assert restored.backend_name == "serial"
            assert restored.query(TotalWeight()) == expected

    @pytest.mark.parametrize("backend", [
        "serial", "thread", "process", "shm", "socket",
    ])
    @pytest.mark.parametrize("spec", ["hh/P2", "matrix/P2"])
    def test_round_robin_continues_across_save_load_on_every_backend(
            self, spec, backend, worker_server, tmp_path):
        """The global item index is part of the checkpoint for both
        domains: a resumed cluster deals the next site where the saved one
        stopped, even when the split is no multiple of m, S or the chunk."""
        seed, split = SEEDS[0], 203
        batch, _, dimension, probes, _ = _stream_for(spec, seed)
        options = _backend_options(backend, worker_server)
        with _cluster(spec, seed, shards=2, dimension=dimension) as whole:
            whole.push_batch(batch[:split])
            whole.push_batch(batch[split:])
            expected = [whole.query(query) for query in probes]
            expected_stats = whole.stats()
        path = tmp_path / "cluster.ckpt"
        with _cluster(spec, seed, shards=2, dimension=dimension,
                      backend=backend, backend_options=options) as first_leg:
            first_leg.push_batch(batch[:split])
            first_leg.save(path)
        with ShardedTracker.load(path, backend=backend,
                                 backend_options=options) as resumed:
            assert resumed.stats().num_sites == NUM_SITES
            resumed.push_batch(batch[split:])
            for query, answer in zip(probes, expected):
                _assert_same_answer(resumed.query(query), answer)
            stats = resumed.stats()
            assert stats.per_shard == expected_stats.per_shard
            assert stats.message_counts == expected_stats.message_counts

    def test_version_1_checkpoint_refused_with_the_cause(self, tmp_path):
        """A row-dealt / element-hashed cluster must never resume as a
        site-sharded one with twice the sites."""
        path = tmp_path / "v1-cluster.ckpt"
        path.write_bytes(base64.b64decode(_PARENT_V1_CLUSTER_CHECKPOINT))
        with pytest.raises(CheckpointError) as refusal:
            ShardedTracker.load(path)
        message = str(refusal.value)
        assert "version 1" in message and "supports version 2" in message
        assert "row-dealt / element-hashed" in message
        assert "site sharding" in message

    def test_rejects_garbage_and_wrong_versions(self, tmp_path):
        import pickle

        from repro.cluster.sharded_tracker import CLUSTER_CHECKPOINT_VERSION

        from repro.wire import pack_frame

        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"junk")
        with pytest.raises(CheckpointError):
            ShardedTracker.load(path)
        path.write_bytes(pack_frame("repro/cluster-checkpoint",
                                    {"version": CLUSTER_CHECKPOINT_VERSION + 1}))
        with pytest.raises(CheckpointError, match="version"):
            ShardedTracker.load(path)
        # Pre-wire pickle cluster checkpoints are refused by name.
        with open(path, "wb") as handle:
            pickle.dump({"format": "repro/cluster-checkpoint",
                         "version": CLUSTER_CHECKPOINT_VERSION}, handle)
        with pytest.raises(CheckpointError, match="pre-wire pickle"):
            ShardedTracker.load(path)
        # A plain tracker checkpoint is not a cluster checkpoint.
        tracker = repro.Tracker.create("hh/P1", num_sites=2, epsilon=0.2)
        tracker_path = tmp_path / "tracker.ckpt"
        tracker.save(tracker_path)
        with pytest.raises(CheckpointError):
            ShardedTracker.load(tracker_path)


# ------------------------------------------------------- facade behaviour
class TestShardedTrackerFacade:
    def test_more_shards_than_sites_refused_before_launch(self, monkeypatch):
        def no_launch(*args, **kwargs):
            raise AssertionError("a backend was created")

        monkeypatch.setattr("repro.cluster.sharded_tracker.create_backend",
                            no_launch)
        with pytest.raises(ValueError,
                           match="shards=3 exceeds num_sites=2"):
            ShardedTracker.create("hh/P1", shards=3, backend="process",
                                  num_sites=2, epsilon=0.5)

    def test_push_routes_by_site_and_frequency_sums_over_shards(self):
        with ShardedTracker.create("hh/P1", shards=2, num_sites=2,
                                   epsilon=0.5) as cluster:
            cluster.push(0, ("a", 2.0))
            cluster.push(1, ("a", 3.0))  # same element, other site's shard
            assert [items for items, _ in cluster.stats().per_shard] == [1, 1]
            cluster.push_batch([("a", 5.0), ("b", 1.0)], site_ids=[0, 1])
            answer = cluster.query(Frequency(element="a"))
            assert answer.estimate == pytest.approx(10.0)
            stats = cluster.stats()
            assert stats.items_processed == 4
            assert [items for items, _ in stats.per_shard] == [2, 2]

    def test_unassigned_items_deal_sites_round_robin_across_calls(self):
        with ShardedTracker.create("matrix/P1", shards=3, num_sites=10,
                                   dimension=4, epsilon=0.5) as cluster:
            cluster.push_batch(np.ones((4, 4)))      # sites 0..3
            cluster.push(9, np.ones(4))              # counts as item 4
            cluster.push_batch(np.ones((5, 4)))      # sites 5..9
            stats = cluster.stats()
            assert stats.num_sites == 10
            # Sites {0,3,6,9} / {1,4,7} / {2,5,8}; site 4 was skipped and
            # site 9 seen twice: the deal follows the global item index.
            assert [items for items, _ in stats.per_shard] == [5, 2, 3]

    def test_a_batch_s_own_sites_column_routes_like_site_ids(self):
        items = [repro.WeightedItem("a", 1.0, site=3),
                 repro.WeightedItem("b", 2.0, site=0)]
        with ShardedTracker.create("hh/exact", shards=2,
                                   num_sites=4) as cluster:
            cluster.push_batch(items)
            assert [n for n, _ in cluster.stats().per_shard] == [1, 1]
            with pytest.raises(ValueError,
                               match=r"site indices must lie in \[0, 4\)"):
                cluster.push_batch([repro.WeightedItem("c", 1.0, site=4)])

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("rows, site_ids, message", [
        (np.ones((2, 4)), None,
         "rows has 4 columns but the stream dimension is 3"),
        (np.ones((2, 3)), [0, 99],
         r"site indices must lie in \[0, 3\), got range \[0, 99\]"),
        (np.ones((2, 3)), [-1, 0], r"site indices must lie in \[0, 3\)"),
        (np.ones((2, 3)), [0], r"site_ids must have shape \(2,\)"),
    ], ids=["wide-rows", "site-too-high", "site-negative", "site-ids-short"])
    def test_malformed_push_raises_itself_and_moves_nothing(
            self, backend, rows, site_ids, message):
        """The bad push is refused in the parent — not acknowledged and
        charged to the next caller, and never applied on some shards only."""
        with ShardedTracker.create("matrix/P2", shards=2, backend=backend,
                                   num_sites=3, dimension=3,
                                   epsilon=0.1) as cluster:
            cluster.push_batch(np.eye(3), site_ids=[0, 1, 2])

            def state():
                stats = cluster.stats()
                return (stats.items_processed, stats.per_shard,
                        cluster.watermark,
                        cluster.query(FrobeniusSquared()))

            before = state()
            with pytest.raises(ValueError, match=message):
                cluster.push_batch(rows, site_ids=site_ids)
            assert state() == before

    def test_query_type_validation(self):
        with ShardedTracker.create("hh/P1", shards=2, num_sites=2,
                                   epsilon=0.5) as cluster:
            with pytest.raises(TypeError, match="Covariance"):
                cluster.query(Covariance())
            with pytest.raises(TypeError, match="Query"):
                cluster.query("heavy hitters")

    def test_closed_cluster_refuses_work(self):
        cluster = ShardedTracker.create("hh/P1", shards=2, num_sites=2,
                                        epsilon=0.5)
        cluster.close()
        with pytest.raises(RuntimeError, match="closed"):
            cluster.query(TotalWeight())
        assert "closed" in repr(cluster)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            ShardedTracker.create("hh/P1", shards=0, num_sites=2, epsilon=0.5)
        with pytest.raises(ValueError, match="unknown engine backend"):
            ShardedTracker.create("hh/P1", shards=2, backend="rpc",
                                  num_sites=2, epsilon=0.5)
        with pytest.raises(ValueError, match="unknown"):
            ShardedTracker.create("hh/P1", shards=2, num_sites=2,
                                  epsilon=0.5, bogus=1)

    def test_seeded_shards_draw_distinct_streams(self):
        seed = SEEDS[0]
        _, batch, _ = hh_stream(seed)
        with _cluster("hh/P3", seed, shards=2) as cluster:
            cluster.run(batch)
            states = cluster._backend.call_all(_rng_state_of_first_site)
            assert states[0] != states[1]


@worker_command
def _rng_state_of_first_site(tracker):
    return tracker.protocol._site_rngs[0].bit_generator.state["state"]


# ------------------------------------------- serial == socket, all specs
class TestSocketSerialBitIdentity:
    """Acceptance anchor for the multi-host backend: over localhost workers
    the ``socket`` backend must answer bit-identically to ``serial`` for
    **every** registered protocol spec — same merged answers, same message
    accounting — with shard state travelling only as wire frames."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", sorted(HH_SPECS))
    def test_hh_socket_matches_serial(self, spec, seed, worker_server):
        _, batch, _ = hh_stream(seed)
        with _cluster(spec, seed, shards=2) as reference:
            reference.run(batch)
            expected = [reference.query(query)
                        for query in (HeavyHitters(phi=0.06), TotalWeight())]
            expected_stats = reference.stats()
        with _cluster(spec, seed, shards=2, backend="socket",
                      backend_options=_backend_options("socket", worker_server),
                      ) as cluster:
            cluster.run(batch)
            for query, answer in zip((HeavyHitters(phi=0.06), TotalWeight()),
                                     expected):
                assert cluster.query(query) == answer, query
            stats = cluster.stats()
            assert stats.total_messages == expected_stats.total_messages
            assert stats.message_counts == expected_stats.message_counts
            assert stats.per_shard == expected_stats.per_shard

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", sorted(MATRIX_SPECS))
    def test_matrix_socket_matches_serial(self, spec, seed, worker_server):
        dataset, batch, _ = matrix_stream(seed)
        queries = (Covariance(), FrobeniusSquared(), SketchMatrix())
        with _cluster(spec, seed, shards=2,
                      dimension=dataset.dimension) as reference:
            reference.run(batch)
            expected = [reference.query(query) for query in queries]
            expected_stats = reference.stats()
        with _cluster(spec, seed, shards=2, dimension=dataset.dimension,
                      backend="socket",
                      backend_options=_backend_options("socket", worker_server),
                      ) as cluster:
            cluster.run(batch)
            for query, answer in zip(queries, expected):
                _assert_same_answer(cluster.query(query), answer)
            stats = cluster.stats()
            assert stats.total_messages == expected_stats.total_messages
            assert stats.message_counts == expected_stats.message_counts

    def test_query_needs_no_cluster_barrier(self, worker_server):
        """Submitted-but-unflushed ingestion is visible to the very next
        query: each shard snapshots after its own FIFO queue, with no
        explicit cluster-wide flush in between."""
        seed = SEEDS[0]
        _, batch, _ = hh_stream(seed)
        with _cluster("hh/P2", seed, shards=2, backend="socket",
                      backend_options=_backend_options("socket", worker_server),
                      ) as cluster:
            cluster.push_batch(batch)  # fire-and-forget submits, no flush()
            answer = cluster.query(TotalWeight())
            assert answer.items_processed == len(batch)
        with _cluster("hh/P2", seed, shards=2) as reference:
            reference.push_batch(batch)
            assert reference.query(TotalWeight()) == answer

    def test_socket_cluster_checkpoint_restores_anywhere(self, worker_server,
                                                         tmp_path):
        """A cluster saved over sockets restores under any backend (shard
        payloads are wire frames encoded on the workers)."""
        seed = SEEDS[0]
        _, batch, _ = hh_stream(seed)
        half = (len(batch) // (2 * CHUNK)) * CHUNK
        with _cluster("hh/P3", seed, shards=2) as whole:
            whole.run(batch[:half])
            whole.run(batch[half:])
            expected = whole.query(HeavyHitters(phi=0.06))
        with _cluster("hh/P3", seed, shards=2, backend="socket",
                      backend_options=_backend_options("socket", worker_server),
                      ) as first_leg:
            first_leg.run(batch[:half])
            path = tmp_path / "socket-cluster.ckpt"
            first_leg.save(path)
        with ShardedTracker.load(path, backend="serial") as resumed:
            resumed.run(batch[half:])
            assert resumed.query(HeavyHitters(phi=0.06)) == expected

    def test_socket_backend_without_addresses_fails_with_instructions(self):
        """Every by-name entry point (create, load of a socket-saved
        checkpoint, bench) must get an actionable BackendError, never a
        raw TypeError from the constructor."""
        with pytest.raises(BackendError, match="backend_options"):
            create_backend("socket")
        with pytest.raises(BackendError, match="backend_options"):
            ShardedTracker.create("hh/P1", shards=1, backend="socket",
                                  num_sites=2, epsilon=0.5)

    def test_socket_saved_checkpoint_load_needs_backend_or_addresses(
            self, worker_server, tmp_path):
        seed = SEEDS[0]
        _, batch, _ = hh_stream(seed)
        with _cluster("hh/P1", seed, shards=2, backend="socket",
                      backend_options=_backend_options("socket", worker_server),
                      ) as cluster:
            cluster.run(batch)
            expected = cluster.query(TotalWeight())
            path = tmp_path / "socket-saved.ckpt"
            cluster.save(path)
        with pytest.raises(BackendError, match="backend_options"):
            ShardedTracker.load(path)  # addresses are not recorded
        with ShardedTracker.load(path, backend="serial") as restored:
            assert restored.query(TotalWeight()) == expected

    def test_one_worker_hosts_many_shards_and_unreachable_worker_fails_fast(
            self, worker_server):
        seed = SEEDS[0]
        _, batch, _ = hh_stream(seed)
        with _cluster("hh/P1", seed, shards=4, backend="socket",
                      backend_options=_backend_options("socket", worker_server),
                      ) as cluster:  # 4 shards on 1 worker
            cluster.run(batch)
            assert cluster.stats().items_processed == len(batch)
        with pytest.raises(BackendError, match="cannot reach worker"):
            ShardedTracker.create(
                "hh/P1", shards=1, backend="socket", num_sites=2, epsilon=0.5,
                backend_options={"addresses": "127.0.0.1:9",  # discard port
                                 "connect_timeout": 0.5})


# -------------------------------------------- worker protocol discipline
class TestWorkerProtocolDiscipline:
    """An undecodable command must not desynchronize the command/reply
    stream: a broken `submit` is held as a deferred error (no unsolicited
    reply), a broken `call` is answered with exactly one error reply, and
    the following call returns its OWN answer."""

    def _serve(self, frames):
        from repro.cluster.worker_protocol import WorkerSession

        frames = list(frames)
        replies = []
        def recv():
            if not frames:
                raise EOFError
            return frames.pop(0)
        WorkerSession(recv, replies.append).serve()
        return replies

    def test_corrupted_submit_defers_error_and_keeps_replies_aligned(self):
        from repro.cluster.worker_protocol import encode_command

        good_submit = encode_command("submit", _push_one, ("a", 2.0))
        corrupted = bytearray(encode_command("submit", _push_one, ("b", 1.0)))
        corrupted[-6] ^= 0x01  # flip a body bit: CRC fails, header intact
        replies = self._serve([
            encode_command("launch", _build_tiny_tracker),
            good_submit,
            bytes(corrupted),                       # must NOT produce a reply
            encode_command("call", _estimate_of, ("a",)),   # reports the error
            encode_command("call", _estimate_of, ("a",)),   # its own answer
            encode_command("stop"),
        ])
        assert len(replies) == 3  # ready + exactly one reply per call
        assert unpack_reply(replies[0])[:2][0] == "ready"
        status, value = unpack_reply(replies[1])[:2]
        assert status == "error" and "CRC" in repr(value)
        status, value = unpack_reply(replies[2])[:2]
        assert status == "ok" and value == 2.0

    def test_a_frame_naming_classes_is_refused_and_the_session_survives(
            self):
        """A command frame carrying the retired object tags — a repro class
        and ``os:system`` by name — gets one error reply, imports nothing,
        and the next call gets its own answer."""
        import sys

        from repro.cluster.worker_protocol import COMMAND_KIND, encode_command

        from old_format import Cls, Error, Member, Obj, old_frame

        modules = set(sys.modules)
        hostile = old_frame(f"{COMMAND_KIND}:call", {
            "op": "call", "fn": "_estimate_of",
            "args": (Obj("os:system", {"command": "true"}),
                     Cls("repro.api.tracker:Tracker"),
                     Member("repro.streaming.network:MessageKind", "scalar"),
                     Error("os:system", ("true",)))})
        replies = self._serve([
            encode_command("launch", _build_tiny_tracker),
            encode_command("submit", _push_one, ("a", 2.0)),
            hostile,
            encode_command("call", _estimate_of, ("a",)),
            encode_command("stop"),
        ])
        assert set(sys.modules) == modules
        assert [unpack_reply(reply)[0] for reply in replies] == \
            ["ready", "error", "ok"]
        error = unpack_reply(replies[1])[1]
        assert type(error) is WireDecodeError
        assert "wire tag OBJECT" in str(error)
        assert unpack_reply(replies[2])[1] == 2.0

    def test_undecodable_ingest_is_held_for_the_next_call(self):
        from repro.cluster.worker_protocol import (
            INGEST_KIND, encode_command, encode_ingest,
            peek_command_op)
        from repro.wire.frames import pack_raw_frame

        good = encode_ingest(np.zeros(1, dtype=np.int64),
                             WeightedItemBatch.from_pairs([("a", 2.0)]), seq=1)
        hostile = pack_raw_frame(INGEST_KIND, b"\x02" + bytes(12))
        corrupted = bytearray(good)
        corrupted[-6] ^= 0x01
        assert peek_command_op(hostile) == peek_command_op(good) == "submit"
        for broken in (hostile, bytes(corrupted)):
            replies = self._serve([
                encode_command("launch", _build_tiny_tracker),
                good,
                broken,                                 # no reply
                encode_command("call", _estimate_of, ("a",)),  # its error
                encode_command("call", _estimate_of, ("a",)),  # its answer
                encode_command("stop"),
            ])
            assert len(replies) == 3
            status, value = unpack_reply(replies[1])[:2]
            assert status == "error" and "WireDecodeError" in repr(value)
            assert unpack_reply(replies[2])[:2] == ("ok", 2.0)

    def test_ingest_at_or_below_the_applied_seq_is_dropped(self):
        from repro.cluster.worker_protocol import (
            encode_command, encode_ingest)

        def ingest(element, seq):
            return encode_ingest(np.zeros(1, dtype=np.int64),
                                 WeightedItemBatch.from_pairs([(element, 1.0)]),
                                 seq=seq)

        replies = self._serve([
            encode_command("launch", _build_tiny_tracker, seq=1),
            ingest("a", 1),        # already in the (re)launched state
            ingest("a", 2),
            ingest("a", 2),        # a replayed duplicate
            ingest("a", 3),
            encode_command("call", _estimate_of, ("a",)),
            encode_command("stop"),
        ])
        assert unpack_reply(replies[1])[:2] == ("ok", 2.0)

    def test_corrupted_call_gets_exactly_one_error_reply(self):
        from repro.cluster.worker_protocol import encode_command

        corrupted = bytearray(encode_command("call", _estimate_of, ("a",)))
        corrupted[-6] ^= 0x01
        replies = self._serve([
            encode_command("launch", _build_tiny_tracker),
            bytes(corrupted),
            encode_command("call", _estimate_of, ("a",)),
            encode_command("stop"),
        ])
        assert len(replies) == 3
        assert unpack_reply(replies[1])[:2][0] == "error"
        status, value = unpack_reply(replies[2])[:2]
        assert status == "ok" and value == 0.0

    def test_unreadable_header_ends_the_session(self):
        from repro.cluster.worker_protocol import encode_command

        replies = self._serve([
            encode_command("launch", _build_tiny_tracker),
            b"\x00garbage-without-a-header",
            encode_command("call", _estimate_of, ("a",)),  # never reached
        ])
        assert len(replies) == 1  # just the ready reply

    def test_malformed_reply_and_command_bodies_fail_cleanly(self):
        """A well-formed frame with a non-dict body must raise
        WireDecodeError (worker) / BackendError (parent), never a raw
        TypeError that crashes the session or skips the reply drain."""
        from repro.wire import WireDecodeError, pack_frame
        from repro.cluster.backends import _decode_reply_as_backend_errors
        from repro.cluster.worker_protocol import (
            COMMAND_KIND, REPLY_KIND, decode_command,
        )

        with pytest.raises(WireDecodeError, match="malformed"):
            decode_command(pack_frame(f"{COMMAND_KIND}:call", ["not", "a", "dict"]))
        with pytest.raises(WireDecodeError, match="malformed"):
            unpack_reply(pack_frame(REPLY_KIND, [1, 2]))
        with pytest.raises(BackendError, match="decoded"):
            _decode_reply_as_backend_errors(pack_frame(REPLY_KIND, [1, 2]))

    def test_non_dict_command_body_follows_undecodable_discipline(self):
        """decode_command raising on a structurally wrong body routes through
        the same header-peek discipline as a corrupted frame."""
        from repro.cluster.worker_protocol import COMMAND_KIND, encode_command
        from repro.wire import pack_frame

        replies = self._serve([
            encode_command("launch", _build_tiny_tracker),
            pack_frame(f"{COMMAND_KIND}:submit", "not a dict"),  # deferred
            encode_command("call", _estimate_of, ("a",)),
            encode_command("call", _estimate_of, ("a",)),
            encode_command("stop"),
        ])
        assert len(replies) == 3
        assert unpack_reply(replies[1])[:2][0] == "error"
        assert unpack_reply(replies[2])[:2] == ("ok", 0.0)


#: Where a hand-built command frame takes raw codec bytes (see _spliced).
_SPLICE = "\x00splice\x00"


def _spliced(op, raw, fn=_SPLICE, args=()):
    """A command frame for ``op`` whose body carries the raw codec bytes
    ``raw`` where ``_SPLICE`` stands in ``fn`` or ``args``."""
    from repro.cluster.worker_protocol import COMMAND_KIND
    from repro.wire import encode_value
    from repro.wire.frames import pack_raw_frame

    body = encode_value({"op": op, "fn": fn, "args": tuple(args)})
    marker = encode_value(_SPLICE)
    assert body.count(marker) == 1
    return pack_raw_frame(f"{COMMAND_KIND}:{op}", body.replace(marker, raw))


def _named(op, name, *args):
    """A command frame for ``op`` naming ``name`` as a plain string."""
    from repro.cluster.worker_protocol import COMMAND_KIND
    from repro.wire import pack_frame

    return pack_frame(f"{COMMAND_KIND}:{op}",
                      {"op": op, "fn": name, "args": args})


def _function_tag(reference):
    """``module:qualname`` under the retired function tag (0x14)."""
    name = reference.encode()
    return b"\x14" + bytes([len(name)]) + name


def _object_tag(reference, **attributes):
    """An instance of the ``module:qualname`` class under the codec's
    object tag, with ``attributes``."""
    from repro.wire import encode_value

    name = reference.encode()
    out = b"\x15" + bytes([len(name)]) + name + bytes([len(attributes)])
    for key, value in attributes.items():
        out += bytes([len(key)]) + key.encode() + encode_value(value)
    return out


class TestHostileFrames:
    """A worker runs only the commands its table declares: a frame naming
    anything else — a ``repro`` function by qualified name, a name the
    table does not hold, a builder object — is refused as undecodable."""

    _serve = TestWorkerProtocolDiscipline._serve

    def test_a_fresh_interpreter_serves_the_built_in_table(self):
        """What a CLI worker can run: importing the worker protocol alone
        declares every built-in command, and nothing else."""
        import os
        import subprocess
        import sys

        listing = subprocess.run(
            [sys.executable, "-c",
             "from repro.cluster.worker_protocol import _TABLE; "
             "print(' '.join(sorted(_TABLE)))"],
            capture_output=True, text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert listing.stdout.split() == sorted([
            "_build_shard", "_restore_shard", "_shard_ingest", "_shard_items",
            "_shard_stats", "_shard_metrics", "_shard_ping",
            "_shard_checkpoint", "_shard_query", "_noop"])

    def test_call_naming_a_repro_function_is_refused(self, tmp_path):
        from repro.cluster.worker_protocol import encode_command

        by_reference = tmp_path / "by-reference.ckpt"
        by_name = tmp_path / "by-name.ckpt"
        replies = self._serve([
            encode_command("launch", _build_tiny_tracker),
            _spliced("call", _function_tag("repro.api.state:save_tracker"),
                     args=(str(by_reference),)),
            _named("call", "repro.api.state:save_tracker", str(by_name)),
            encode_command("call", _estimate_of, ("a",)),
            encode_command("stop"),
        ])
        assert [unpack_reply(reply)[0] for reply in replies] == [
            "ready", "error", "error", "ok"]
        assert "WireDecodeError" in repr(unpack_reply(replies[1])[1])
        assert "not a declared worker command" in \
            repr(unpack_reply(replies[2])[1])
        assert not by_reference.exists() and not by_name.exists()

    def test_submit_naming_an_undeclared_command_is_held(self, tmp_path):
        from repro.cluster.worker_protocol import encode_command

        path = tmp_path / "submitted.ckpt"
        for hostile in (
                _spliced("submit", _function_tag(
                    "repro.api.state:save_tracker"), args=(str(path),)),
                _named("submit", "no_such_command")):
            replies = self._serve([
                encode_command("launch", _build_tiny_tracker),
                hostile,                                        # no reply
                encode_command("call", _estimate_of, ("a",)),  # its error
                encode_command("submit", _push_one, ("a", 2.0)),
                encode_command("call", _estimate_of, ("a",)),  # still serving
                encode_command("stop"),
            ])
            assert len(replies) == 3
            status, value = unpack_reply(replies[1])[:2]
            assert status == "error" and "WireDecodeError" in repr(value)
            assert unpack_reply(replies[2])[:2] == ("ok", 2.0)
            assert not path.exists()

    @pytest.mark.parametrize("launch", ["builder in args", "object as fn"])
    def test_launch_carrying_a_builder_object_ends_the_session(self, launch):
        from repro.cluster.worker_protocol import encode_command

        if launch == "builder in args":
            # A callable object: how a launch carried its builder when
            # frames could name any class of a trusted module.
            frame = _spliced("launch", _object_tag(
                f"{__name__}:_ObjectBuilder", spec="hh/P1"),
                fn=None, args=(_SPLICE,))
        else:
            frame = _spliced("launch", _object_tag(
                "repro.api.queries:TotalWeight"))
        replies = self._serve([
            frame,
            encode_command("call", _estimate_of, ("a",)),  # never reached
        ])
        assert len(replies) == 1
        status, value = unpack_reply(replies[0])[:2]
        assert status == "error" and "WireDecodeError" in repr(value)


@dataclasses.dataclass(frozen=True)
class _ObjectBuilder:
    """A shard builder object: never declared, so no worker runs it."""

    spec: str

    def __call__(self):
        return repro.Tracker.create(self.spec, num_sites=2, epsilon=0.5)


class _StubShard:
    """Scripted RemoteShardHandle for drain-discipline unit tests."""

    def __init__(self, send_fails=False):
        self.send_fails = send_fails
        self.sends = 0
        self.finishes = 0

    def send_command(self, op, fn, args):
        if self.send_fails:
            raise BackendError("send: worker is gone")
        self.sends += 1

    def recv_reply(self):
        self.finishes += 1
        return ("ok", f"round-{self.finishes}")

    def finish_call(self):
        from repro.cluster.backends import RemoteShardHandle
        return RemoteShardHandle.finish_call(self)


class TestDrainCallAllDiscipline:
    def test_send_failure_still_drains_successfully_sent_shards(self):
        """A dead shard mid-fan-out must not leave the already-sent shards
        with unread replies (which would shift every later reply back one
        round)."""
        from repro.cluster.backends import drain_call_all

        healthy, dead = _StubShard(), _StubShard(send_fails=True)
        with pytest.raises(BackendError, match="gone"):
            drain_call_all([healthy, dead], _estimate_of, ("a",))
        assert healthy.sends == 1
        assert healthy.finishes == 1  # its owed reply was drained
        # The stream stays aligned: the next round reads its OWN reply.
        results = drain_call_all([healthy], _estimate_of, ("a",))
        assert results == ["round-2"]

    def test_reply_failure_drains_the_rest(self):
        from repro.cluster.backends import drain_call_all

        class _ErrShard(_StubShard):
            def recv_reply(self):
                return ("error", RuntimeError("shard exploded"))

        tail = _StubShard()
        with pytest.raises(BackendError, match="exploded"):
            drain_call_all([_ErrShard(), tail], _estimate_of, ("a",))
        assert tail.finishes == 1


class TestSocketHandshakeCleanup:
    @pytest.mark.parametrize("launch_reply", [None, b"\x00not a wire frame\xff"],
                             ids=["accept-then-close", "garbage-launch-reply"])
    def test_failed_launch_handshake_does_not_leak_fds(self, launch_reply):
        """A worker that accepts the TCP connection but dies before the
        'ready' reply — or answers the launch with garbage — must not leak
        the parent-side socket fd."""
        import os
        import socket as socket_module
        import threading

        from repro.wire import recv_frame, send_frame

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc to count fds")

        listener = socket_module.create_server(("127.0.0.1", 0))

        def accept_and_fail():
            for _ in range(5):  # one per launch below, then the thread ends
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                if launch_reply is not None:
                    recv_frame(conn)
                    send_frame(conn, launch_reply)
                conn.close()

        thread = threading.Thread(target=accept_and_fail, daemon=True)
        thread.start()
        address = listener.getsockname()[:2]
        before = len(os.listdir("/proc/self/fd"))
        # Keep every traceback (and the frames' sockets) alive while
        # counting, so only an explicit close() can release an fd.
        failures = []
        for _ in range(5):
            with pytest.raises(BackendError) as failure:
                backend = create_backend("socket", addresses=[address])
                backend.launch([_build_tiny_tracker])
            failures.append(failure)
        after = len(os.listdir("/proc/self/fd"))
        listener.close()
        thread.join(timeout=5)
        assert after <= before + 1  # no accumulated leaked sockets
