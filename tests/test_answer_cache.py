"""Answer caching keyed by the state each answer read: identity,
invalidation and freshness.

The hot-path contract: a cached answer is the *same frozen object* a fresh
evaluation would return, stored under the per-shard item counts its own
parts report (its label) and looked up under the session's current
watermark, so every ingestion invalidates by construction (entries are
never touched, they stop being addressable), and a query issued after an
acknowledged push can never observe pre-push state.  Covered here:

* :class:`~repro.api.cache.AnswerCache` unit behaviour (LRU, disabled
  mode, dead generations dropped — also under two racing writers —
  pickling as configuration);
* the ``watermark`` of :class:`~repro.api.Tracker` and
  :class:`~repro.cluster.ShardedTracker` (push/batch/run/restore, and
  ingest through the ``Tracker.protocol`` escape hatch);
* bit-identity of cached answers for **every** registered spec
  (seed-parameterized like the state round-trip suite);
* a concurrent push/query stress test asserting the freshness watermark,
  and a deterministic reader parked between a push's bookkeeping and its
  delivery to the shard;
* cached answers across ``move_shard`` (a handoff moves state intact) and
  checkpoint restore;
* per-shard part reuse: answers equal those of a ``cache_size=0`` twin for
  every spec, a query after a one-site push asks exactly that site's
  shard, a shard's held error is never hidden behind its stored part, and
  racing writers on different shards lose no watermark increment;
* the degraded ``stats()`` surface (``missing_shards`` instead of a
  hard failure).
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

import repro
from repro.api import (
    ApproximationError,
    Covariance,
    Frequency,
    FrobeniusSquared,
    HeavyHitters,
    Norms,
    SketchMatrix,
    TotalWeight,
)
from repro.api.cache import _PART_REUSES, DEFAULT_CACHE_SIZE, AnswerCache
from repro.cluster.backends import BackendError
from repro.cluster.merge import _shard_query
from repro.cluster.socket_backend import WorkerServer
from repro.obs.metrics import REGISTRY
from repro.streaming.items import WeightedItemBatch

from test_api_state_roundtrip import (
    HH_SPECS,
    MATRIX_SPECS,
    _params,
)
from test_protocol_equivalence_properties import (
    SEEDS,
    hh_stream,
    matrix_stream,
)

CHUNK = 50


# --------------------------------------------------------------------------
# AnswerCache unit behaviour.
# --------------------------------------------------------------------------
class TestAnswerCacheUnit:
    def test_lru_eviction_and_counters(self):
        cache = AnswerCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes a's LRU slot
        cache.put("c", 3)                   # evicts b, the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.hits == 3
        assert cache.misses == 1

    def test_disabled_cache_stores_nothing(self):
        cache = AnswerCache(max_entries=0)
        assert not cache.enabled
        cache.put("k", "v")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AnswerCache(max_entries=-1)

    def test_newer_generation_drops_dead_entries(self):
        cache = AnswerCache(max_entries=8)
        cache.put(("a", 1, 0), "a@1", (1, 0))
        cache.put(("b", 1, 0), "b@1", (1, 0))
        assert len(cache) == 2
        cache.put(("a", 2, 0), "a@2", (2, 0))
        assert len(cache) == 1                  # both generation-1 answers gone
        assert cache.get(("a", 2, 0)) == "a@2"
        # An answer computed under a dead generation is not stored.
        cache.put(("b", 1, 0), "b@1", (1, 0))
        assert len(cache) == 1
        assert cache.get(("b", 1, 0)) is None
        # Any one shard moving on is a newer generation too.
        cache.put(("a", 2, 1), "a@2'", (2, 1))
        assert len(cache) == 1
        assert cache.evictions == 0             # not LRU evictions

    def test_session_keeps_only_the_live_generation(self):
        tracker = repro.Tracker.create("hh/exact", num_sites=2)
        tracker.push(0, ("a", 1.0))
        tracker.query(TotalWeight())
        tracker.query(HeavyHitters(phi=0.1))
        assert len(tracker.answer_cache) == 2
        tracker.push(1, ("b", 1.0))
        tracker.query(TotalWeight())
        assert len(tracker.answer_cache) == 1

    def test_two_writers_leave_only_the_newest_generation(self):
        """Puts racing from two threads, one lagging behind the other: no
        entry of a generation older than the newest ever stays behind."""
        cache = AnswerCache(max_entries=64)
        start = threading.Barrier(3)
        done = threading.Event()
        stale = []

        def writer(name, generations):
            start.wait()
            for generation in generations:
                cache.put((name, generation), generation, (generation, 0))

        def auditor():
            start.wait()
            while not done.is_set():
                with cache._lock:
                    newest = cache._generation
                    stale.extend(key for key in cache._entries
                                 if (key[1], 0) != newest)

        threads = [threading.Thread(target=writer, args=("ahead", range(3000))),
                   threading.Thread(target=writer,
                                    args=("behind", range(0, 3000, 7)))]
        audit = threading.Thread(target=auditor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads + [audit]:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            done.set()
            audit.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [audit])
        assert stale == []
        assert cache._generation == (2999, 0)
        assert list(cache._entries) == [("ahead", 2999)]

    def test_pickles_as_configuration_only(self):
        cache = AnswerCache(max_entries=7, spec="hh/P2")
        cache.put("k", "v")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.max_entries == 7
        assert clone.get("k") is None       # entries are process-local
        assert len(clone) == 0


# --------------------------------------------------------------------------
# The watermark on the tracker facades.
# --------------------------------------------------------------------------
class TestWatermark:
    def test_tracker_watermark_counts_every_ingest_form(self):
        tracker = repro.Tracker.create("hh/exact", num_sites=3)
        assert tracker.watermark == (0,)
        tracker.push(0, ("a", 2.0))
        assert tracker.watermark == (1,)
        tracker.push_batch([0, 1], WeightedItemBatch.from_pairs(
            [("b", 1.0), ("c", 1.0)]))
        assert tracker.watermark == (3,)
        tracker.run(WeightedItemBatch.from_pairs([("d", 1.0)]))
        assert tracker.watermark == (4,)
        assert tracker.stats().items_processed == 4

    def test_sharded_watermark_counts_items_per_shard(self):
        with repro.ShardedTracker.create("hh/exact", shards=2,
                                         backend="thread",
                                         num_sites=4) as cluster:
            assert cluster.watermark == (0, 0)
            cluster.push(0, ("a", 2.0))                 # site 0 -> shard 0
            assert cluster.watermark == (1, 0)
            cluster.push_batch(WeightedItemBatch.from_pairs(
                [("b", 1.0), ("c", 1.0)]))              # sites 1, 2
            assert cluster.watermark == (2, 1)
            cluster.run(WeightedItemBatch.from_pairs(
                [("d", 1.0), ("e", 1.0), ("f", 1.0)]))  # sites 3, 0, 1
            assert cluster.watermark == (3, 3)
            stats = cluster.stats()
            assert tuple(row[0] for row in stats.per_shard) == (3, 3)

    def test_cached_hit_is_the_same_frozen_object(self):
        tracker = repro.Tracker.create("hh/exact", num_sites=2)
        tracker.run(WeightedItemBatch.from_pairs([("a", 5.0), ("b", 1.0)]))
        first = tracker.query(TotalWeight())
        second = tracker.query(TotalWeight())
        assert second is first
        assert tracker.answer_cache.hits == 1
        third = tracker.query(HeavyHitters(phi=0.1))
        assert tracker.query(HeavyHitters(phi=0.1)) is third

    def test_push_invalidates_by_construction(self):
        tracker = repro.Tracker.create("hh/exact", num_sites=2)
        tracker.run(WeightedItemBatch.from_pairs([("a", 5.0)]))
        stale = tracker.query(TotalWeight())
        assert stale.estimate == pytest.approx(5.0)
        tracker.push(0, ("b", 3.0))
        fresh = tracker.query(TotalWeight())
        assert fresh is not stale
        assert fresh.estimate == pytest.approx(8.0)

    def test_escape_hatch_ingest_is_never_answered_from_the_cache(self):
        """Items fed straight to ``tracker.protocol`` move the watermark,
        which is read from the protocol itself."""
        tracker = repro.Tracker.create("hh/exact", num_sites=2)
        tracker.push(0, ("a", 1.0))
        assert tracker.query(TotalWeight()).estimate == pytest.approx(1.0)
        tracker.protocol.observe(1, ("b", 2.0))
        assert tracker.query(TotalWeight()).estimate == pytest.approx(3.0)
        assert tracker.watermark == (2,)

    def test_cache_size_zero_disables_memoization(self):
        tracker = repro.Tracker.create("hh/exact", num_sites=2, cache_size=0)
        tracker.run(WeightedItemBatch.from_pairs([("a", 5.0)]))
        first = tracker.query(TotalWeight())
        second = tracker.query(TotalWeight())
        assert first is not second
        assert first == second

    def test_restore_resumes_at_the_saved_watermark(self, tmp_path):
        tracker = repro.Tracker.create("hh/exact", num_sites=2)
        tracker.run(WeightedItemBatch.from_pairs(
            [("a", 1.0), ("b", 1.0), ("c", 1.0)]))
        path = tmp_path / "tracker.ckpt"
        tracker.save(path)
        loaded = repro.Tracker.load(path)
        assert loaded.watermark == tracker.watermark == (3,)
        assert loaded.query(TotalWeight()) == tracker.query(TotalWeight())

    def test_sharded_restore_resumes_at_the_saved_watermark(self, tmp_path):
        path = tmp_path / "cluster.ckpt"
        with repro.ShardedTracker.create("hh/exact", shards=2,
                                         backend="thread",
                                         num_sites=4) as cluster:
            cluster.push_batch(WeightedItemBatch.from_pairs(
                [("a", 1.0), ("b", 2.0), ("c", 3.0)]))
            saved = cluster.watermark
            per_shard = tuple(row[0] for row in cluster.stats().per_shard)
            cluster.save(path)
            expected = cluster.query(TotalWeight())
        assert saved == per_shard == (2, 1)
        with repro.ShardedTracker.load(path, backend="thread") as loaded:
            assert loaded.watermark == saved
            assert loaded.query(TotalWeight()) == expected


# --------------------------------------------------------------------------
# Bit-identity of cached answers for every registered spec.
# --------------------------------------------------------------------------
def _identity_queries(spec, dimension):
    if spec in HH_SPECS:
        return [HeavyHitters(phi=0.06), TotalWeight()]
    probe = np.zeros(dimension, dtype=np.float64)
    probe[0] = 1.0
    return [Covariance(), FrobeniusSquared(), Norms(directions=probe)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
def test_cached_answers_bit_identical_to_fresh_fanout(spec, seed):
    """For every spec: a cache hit is the frozen answer an uncached
    fan-out produces, bit for bit."""
    if spec in HH_SPECS:
        _sample, batch, sites = hh_stream(seed)
        dimension = None
    else:
        dataset, batch, sites = matrix_stream(seed)
        dimension = dataset.dimension
    params = _params(spec, seed, dimension)
    site_ids = [int(site) for site in sites]

    cached = repro.ShardedTracker.create(spec, shards=2, backend="thread",
                                         chunk_size=CHUNK, **params)
    uncached = repro.ShardedTracker.create(spec, shards=2, backend="thread",
                                           chunk_size=CHUNK, cache_size=0,
                                           **params)
    try:
        for cluster in (cached, uncached):
            cluster.push_batch(batch, site_ids=site_ids)
            cluster.flush()
        for query in _identity_queries(spec, dimension):
            fresh = uncached.query(query)
            first = cached.query(query)
            hit = cached.query(query)
            assert hit is first                      # same frozen object
            assert hit.to_json() == fresh.to_json()  # bit-identical payload
    finally:
        cached.close()
        uncached.close()


# --------------------------------------------------------------------------
# Concurrency: a post-push query never observes pre-push state.
# --------------------------------------------------------------------------
def test_concurrent_push_query_serves_no_stale_answer():
    """Readers racing a writer: every answer's total weight must cover at
    least every push acknowledged before the query was issued."""
    with repro.ShardedTracker.create("hh/exact", shards=2, backend="thread",
                                     num_sites=4) as cluster:
        acknowledged = [0.0]    # total weight of completed pushes
        stop = threading.Event()
        violations = []
        failures = []

        def writer():
            try:
                for round_ in range(200):
                    cluster.push_batch(WeightedItemBatch.from_pairs(
                        [(round_ % 17, 1.0), (round_ % 5, 1.0)]))
                    acknowledged[0] += 2.0
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    watermark = acknowledged[0]
                    answer = cluster.query(TotalWeight())
                    if answer.estimate < watermark - 1e-9:
                        violations.append((watermark, answer.estimate))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        assert violations == []
        assert cluster.query(TotalWeight()).estimate == pytest.approx(400.0)
        assert sum(cluster.watermark) == 400


def test_reader_between_bookkeeping_and_delivery_caches_nothing_stale():
    """A reader runs while the writer has recorded a push but the shard has
    not received it: its pre-push answer must not be served for a query
    issued after ``push_batch`` returned."""
    with repro.ShardedTracker.create("hh/exact", shards=2, backend="thread",
                                     num_sites=4) as cluster:
        cluster.push_batch(WeightedItemBatch.from_pairs(
            [("a", 1.0), ("b", 1.0)]))
        parked, release = threading.Barrier(2), threading.Barrier(2)
        real_submit = cluster._backend.submit
        park_once = [True]

        def submit(shard, fn, *args):
            if park_once[0]:
                park_once[0] = False
                parked.wait(timeout=30)
                release.wait(timeout=30)
            real_submit(shard, fn, *args)

        cluster._backend.submit = submit
        writer = threading.Thread(target=cluster.push_batch, args=(
            WeightedItemBatch.from_pairs([("c", 1.0)]),))
        writer.start()
        parked.wait(timeout=30)
        in_window = cluster.query(TotalWeight())
        assert in_window.estimate == pytest.approx(2.0)   # push not delivered
        release.wait(timeout=30)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert cluster.query(TotalWeight()).estimate == pytest.approx(3.0)


def test_cached_hit_label_matches_watermark_at_serve_time():
    """Answers are stored under the item counts they read: a hit can only
    be served while the cluster watermark still names that state."""
    with repro.ShardedTracker.create("hh/exact", shards=2, backend="thread",
                                     num_sites=4) as cluster:
        cluster.push_batch(WeightedItemBatch.from_pairs([("a", 1.0)]))
        watermark_at_store = cluster.watermark
        cluster.query(TotalWeight())
        before = cluster.answer_cache.hits
        assert cluster.watermark == watermark_at_store
        cluster.query(TotalWeight())
        assert cluster.answer_cache.hits == before + 1
        cluster.push_batch(WeightedItemBatch.from_pairs([("b", 1.0)]))
        assert cluster.watermark != watermark_at_store
        cluster.query(TotalWeight())             # new state -> miss, re-eval
        assert cluster.answer_cache.hits == before + 1


# --------------------------------------------------------------------------
# Live shard handoff: the state moves intact, so cached answers stay valid.
# --------------------------------------------------------------------------
def test_hit_after_move_shard_is_bit_identical_to_uncached_fanout():
    _sample, batch, _ = hh_stream(SEEDS[0])
    params = _params("hh/P2", SEEDS[0], None)
    with WorkerServer() as a, WorkerServer() as b:
        cluster = repro.ShardedTracker.create(
            "hh/P2", shards=2, backend="socket", chunk_size=CHUNK,
            backend_options={"addresses": [a.address],
                             "reconnect_backoff": 0.05},
            **params)
        twin = repro.ShardedTracker.create(
            "hh/P2", shards=2, backend="serial", chunk_size=CHUNK,
            cache_size=0, **params)
        try:
            for session in (cluster, twin):
                session.push_batch(batch)
                session.flush()
            reference = cluster.query(TotalWeight())
            watermark = cluster.watermark
            hits_before = cluster.answer_cache.hits
            cluster.move_shard(0, b.address)
            assert cluster.watermark == watermark
            hit = cluster.query(TotalWeight())
            assert hit is reference
            assert cluster.answer_cache.hits == hits_before + 1
            assert hit.to_json() == twin.query(TotalWeight()).to_json()
            # A fan-out to the moved shard reads the same state.
            cluster.answer_cache.clear()
            assert cluster.query(TotalWeight()).to_json() == hit.to_json()
        finally:
            cluster.close()
            twin.close()


# --------------------------------------------------------------------------
# Degraded stats: missing shards are reported, not fatal.
# --------------------------------------------------------------------------
class _PartiallyDeadBackend:
    """Delegates to a live backend but fails a fixed shard set."""

    def __init__(self, inner, dead):
        self._inner = inner
        self._dead = set(dead)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def call_all_partial(self, fn, *args):
        results, errors = self._inner.call_all_partial(fn, *args)
        for shard in self._dead:
            results[shard] = None
            errors[shard] = BackendError(f"shard {shard} lost")
        return results, errors


def test_stats_reports_missing_shards_instead_of_failing():
    with repro.ShardedTracker.create("hh/exact", shards=3, backend="thread",
                                     num_sites=4) as cluster:
        cluster.push_batch(WeightedItemBatch.from_pairs(
            [("a", 1.0), ("b", 2.0), ("c", 3.0)]))
        healthy = cluster.stats()
        assert healthy.missing_shards == ()
        assert all(row is not None for row in healthy.per_shard)

        cluster._backend = _PartiallyDeadBackend(cluster._backend, {1})
        degraded = cluster.stats()
        assert degraded.missing_shards == (1,)
        assert degraded.per_shard[1] is None
        assert degraded.per_shard[0] is not None
        # Sums cover the reachable shards only.
        live_items = sum(row[0] for row in degraded.per_shard
                         if row is not None)
        assert degraded.items_processed == live_items

        cluster._backend = _PartiallyDeadBackend(cluster._backend, {0, 1, 2})
        with pytest.raises(BackendError, match="all 3 shard"):
            cluster.stats()
        cluster._backend = cluster._backend._inner._inner


# --------------------------------------------------------------------------
# Per-shard part reuse: a cache miss asks only the shards whose items moved.
# --------------------------------------------------------------------------
def _every_kind(spec, dimension, element):
    """One query of every kind the spec's domain serves."""
    if spec in HH_SPECS:
        return [HeavyHitters(phi=0.06), Frequency(element=element),
                TotalWeight()]
    probe = np.zeros(dimension, dtype=np.float64)
    probe[0] = 1.0
    return [Covariance(), Norms(directions=probe), SketchMatrix(),
            FrobeniusSquared(), ApproximationError()]


def _count_fanouts(cluster):
    """Record the shards each ``_shard_query`` fan-out of ``cluster`` asks."""
    asked = []
    backend = cluster._backend
    real_call_all, real_partial = backend.call_all, backend.call_all_partial

    def call_all(fn, *args, shards=None):
        if fn is _shard_query:
            asked.append(tuple(range(cluster.num_shards)) if shards is None
                         else tuple(shards))
        return real_call_all(fn, *args, shards=shards)

    def call_all_partial(fn, *args):
        if fn is _shard_query:
            asked.append(tuple(range(cluster.num_shards)))
        return real_partial(fn, *args)

    backend.call_all = call_all
    backend.call_all_partial = call_all_partial
    return asked


PUSHES = 8


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
def test_part_reuse_is_invisible_in_answers(spec, backend, shards):
    """One-item pushes on rotating sites, every query kind after each: the
    answers equal those of a ``cache_size=0`` twin, which asks every shard
    every time; writing into a fresh answer changes no later answer."""
    seed = SEEDS[0]
    if spec in HH_SPECS:
        _sample, batch, sites = hh_stream(seed)
        dimension = None
        element = batch.elements[0]
    else:
        dataset, batch, sites = matrix_stream(seed)
        dimension = dataset.dimension
        element = None
    params = _params(spec, seed, dimension)
    prefix = len(batch) // 2
    cached = repro.ShardedTracker.create(spec, shards=shards, backend=backend,
                                         chunk_size=CHUNK, **params)
    twin = repro.ShardedTracker.create(spec, shards=shards, backend=backend,
                                       chunk_size=CHUNK, cache_size=0,
                                       **params)
    try:
        for cluster in (cached, twin):
            cluster.push_batch(batch[:prefix], site_ids=sites[:prefix])
        queries = _every_kind(spec, dimension, element)
        for step in range(PUSHES):
            site = step % params["num_sites"]
            item = batch[prefix + step:prefix + step + 1]
            for cluster in (cached, twin):
                cluster.push_batch(item, site_ids=[site])
            for query in queries:
                answer = cached.query(query)
                assert answer.to_dict() == twin.query(query).to_dict(), (
                    f"{type(query).__name__} after push {step}")
                estimate = answer.estimate
                if (isinstance(estimate, np.ndarray)
                        and estimate.flags.writeable):
                    estimate.fill(-1.0)
        assert cached.answer_cache.part_reuses > 0
    finally:
        cached.close()
        twin.close()


class TestFanoutCount:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_one_site_push_asks_exactly_its_shard(self, backend):
        with repro.ShardedTracker.create("hh/P2", shards=3, backend=backend,
                                         num_sites=6,
                                         epsilon=0.1) as cluster:
            asked = _count_fanouts(cluster)
            cluster.push(0, ("a", 1.0))
            cluster.query(TotalWeight())
            assert asked == [(0, 1, 2)]              # nothing stored yet
            for site in (4, 2, 3, 5, 1, 0, 0):
                del asked[:]
                cluster.push(site, (f"e{site}", 2.0))
                answer = cluster.query(TotalWeight())
                assert asked == [(site % 3,)]
                assert answer.items_processed == sum(cluster.watermark)
            del asked[:]
            cluster.query(HeavyHitters(phi=0.1))     # a new key asks all
            assert asked == [(0, 1, 2)]

    def test_batch_spanning_shards_asks_each_of_them(self):
        with repro.ShardedTracker.create("hh/P2", shards=3, backend="serial",
                                         num_sites=6,
                                         epsilon=0.1) as cluster:
            asked = _count_fanouts(cluster)
            cluster.query(TotalWeight())
            del asked[:]
            cluster.push_batch(WeightedItemBatch.from_pairs(
                [("a", 1.0), ("b", 1.0)]), site_ids=[1, 5])
            cluster.query(TotalWeight())
            assert asked == [(1, 2)]
            del asked[:]
            cluster.push_batch(WeightedItemBatch.from_pairs(
                [("a", 1.0), ("b", 1.0), ("c", 1.0)]))
            cluster.query(TotalWeight())
            assert asked == [(0, 1, 2)]

    def test_disabled_cache_and_partial_queries_ask_every_shard(self):
        for cache_size, partial in ((0, False), (DEFAULT_CACHE_SIZE, True)):
            with repro.ShardedTracker.create(
                    "hh/P2", shards=3, backend="serial", num_sites=6,
                    epsilon=0.1, cache_size=cache_size) as cluster:
                asked = _count_fanouts(cluster)
                for site in (0, 0, 1):
                    cluster.push(site, ("a", 1.0))
                    cluster.query(TotalWeight(), partial=partial)
                    cluster.query(TotalWeight(), partial=partial)
                assert asked == [(0, 1, 2)] * 6
                assert cluster.answer_cache.part_reuses == 0

    def test_held_shard_error_is_raised_and_never_hidden_by_reuse(self):
        """A push the shard refuses leaves an error held on it: the next
        query raises it, and no later query serves that shard's part from
        before the refused push without asking the shard."""
        with repro.ShardedTracker.create("hh/exact", shards=2,
                                         backend="process",
                                         num_sites=4) as cluster:
            cluster.push(0, ("a", 1.0))
            cluster.push(1, ("b", 2.0))
            assert cluster.query(TotalWeight()).estimate == pytest.approx(3.0)
            asked = _count_fanouts(cluster)
            real_submit = cluster._backend.submit

            def out_of_range(shard, fn, site_ids, batch):
                real_submit(shard, fn, site_ids + 99, batch)

            cluster._backend.submit = out_of_range
            cluster.push(0, ("c", 4.0))          # refused on shard 0
            cluster._backend.submit = real_submit
            with pytest.raises(BackendError):
                cluster.query(TotalWeight())
            assert asked == [(0,)]
            for site, weight in ((1, 8.0), (0, 16.0), (1, 32.0)):
                del asked[:]
                cluster.query(TotalWeight())
                assert 0 in asked[0]
                cluster.push(site, ("d", weight))
            del asked[:]
            answer = cluster.query(TotalWeight())
            assert asked == [(0, 1)]
            assert answer.estimate == pytest.approx(59.0)

    def test_part_reuses_are_counted(self):
        spec_series = _PART_REUSES.labels(spec="hh/P2")
        before = spec_series.value()
        with repro.ShardedTracker.create("hh/P2", shards=3, backend="serial",
                                         num_sites=6,
                                         epsilon=0.1) as cluster:
            cluster.push(0, ("a", 1.0))
            cluster.query(TotalWeight())
            assert cluster.answer_cache.part_reuses == 0
            cluster.push(4, ("b", 1.0))
            cluster.query(TotalWeight())
            assert cluster.answer_cache.part_reuses == 2
            cluster.query(TotalWeight())          # a hit reuses no part
            assert cluster.answer_cache.part_reuses == 2
        expected = 2.0 if REGISTRY.enabled else 0.0
        assert spec_series.value() - before == expected


class TestStoredParts:
    def test_older_part_never_replaces_a_newer_one(self):
        cache = AnswerCache(max_entries=4)
        cache.store_parts("q", [{"items": 5}, {"items": 3}])
        cache.store_parts("q", [{"items": 4}, {"items": 7}])
        assert cache.current_parts("q", (5, 7)) == [{"items": 5},
                                                    {"items": 7}]
        assert cache.current_parts("q", (6, 7)) == [None, {"items": 7}]
        assert cache.current_parts("other", (5, 7)) == [None, None]

    def test_parts_survive_the_generation_drop_and_clear_drops_them(self):
        cache = AnswerCache(max_entries=4)
        cache.store_parts("q", [{"items": 1}, {"items": 1}])
        cache.put(("q", (1, 1)), "answer", (1, 1))
        cache.put(("q", (2, 1)), "answer'", (2, 1))
        assert cache.current_parts("q", (2, 1)) == [None, {"items": 1}]
        cache.clear()
        assert cache.current_parts("q", (2, 1)) == [None, None]

    def test_parts_are_bounded_by_max_entries(self):
        cache = AnswerCache(max_entries=2)
        for key in "abc":
            cache.store_parts(key, [{"items": 0}])
        assert cache.current_parts("a", (0,)) == [None]
        assert cache.current_parts("c", (0,)) == [{"items": 0}]
        disabled = AnswerCache(max_entries=0)
        disabled.store_parts("a", [{"items": 0}])
        assert disabled.current_parts("a", (0,)) == [None]


def test_racing_writers_and_readers_see_every_acknowledged_push():
    """Writers on sites of different shards and racing readers, on the
    thread backend: every answer covers every push acknowledged before its
    query was issued, shard by shard, and no watermark increment is lost.
    The last shard takes no pushes during the race, so its part is reused.
    """
    num_shards, writers, rounds = 3, 2, 300
    with repro.ShardedTracker.create("hh/exact", shards=num_shards,
                                     backend="thread",
                                     num_sites=num_shards) as cluster:
        cluster.push(num_shards - 1, ("still", 1.0))
        acknowledged = [0.0] * writers
        start = threading.Barrier(writers + 3)
        writers_done = threading.Barrier(writers + 1)
        stop = threading.Event()
        violations = []
        failures = []

        def writer(site):
            try:
                start.wait(timeout=60)
                for _ in range(rounds):
                    cluster.push(site, (f"site{site}", 1.0))
                    acknowledged[site] += 1.0
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)
            finally:
                writers_done.wait(timeout=120)

        def reader(site):
            try:
                start.wait(timeout=60)
                rounds_read = 0
                while rounds_read < 3 or not stop.is_set():
                    rounds_read += 1
                    floor = list(acknowledged)
                    total = cluster.query(TotalWeight())
                    one = cluster.query(Frequency(element=f"site{site}"))
                    if total.estimate < sum(floor) + 1.0 - 1e-9:
                        violations.append(("total", floor, total.estimate))
                    if one.estimate < floor[site] - 1e-9:
                        violations.append((site, floor, one.estimate))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)

        threads = [threading.Thread(target=writer, args=(site,))
                   for site in range(writers)]
        threads += [threading.Thread(target=reader, args=(site % writers,))
                    for site in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            writers_done.wait(timeout=120)
            stop.set()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        if failures:
            raise failures[0]
        assert not any(thread.is_alive() for thread in threads)
        assert violations == []
        assert cluster.watermark == (rounds,) * writers + (1,)
        assert cluster.query(TotalWeight()).estimate == pytest.approx(
            writers * rounds + 1)
        assert cluster.answer_cache.part_reuses > 0
