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
    Covariance,
    FrobeniusSquared,
    HeavyHitters,
    Norms,
    TotalWeight,
)
from repro.api.cache import AnswerCache
from repro.cluster.backends import BackendError
from repro.cluster.socket_backend import WorkerServer
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
