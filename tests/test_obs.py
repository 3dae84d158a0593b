"""Observability layer: metrics kernel, JSON logs, traces, /v1/metrics.

The kernel tests pin the metric-family semantics (label-aware counters,
gauges, fixed-bucket histograms, snapshot/merge/render round trips, the
zero-cost-when-disabled contract).  The acceptance test at the bottom is
the PR's end-to-end property: a 2-shard socket cluster served over the
HTTP gateway, with a mid-stream worker kill, exposes one merged
Prometheus document containing gateway route histograms, tracker series,
and nonzero reconnect/replay counters — while answers stay correct.

The process-global ``REGISTRY`` accumulates across the whole test run,
so cross-cutting assertions check presence and lower bounds, never exact
totals.
"""

from __future__ import annotations

import io
import json
import logging
import pickle
import sys
import threading
from time import perf_counter

import pytest

import repro
from repro.cluster import ShardedTracker, WorkerServer
from repro.cluster.worker_protocol import decode_command, encode_command
from repro.gateway import Gateway, GatewayClient
from repro.obs.logging import (
    JsonLogFormatter,
    configure_json_logging,
    current_trace_id,
    get_logger,
    new_trace_id,
    trace_context,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
    worker_identity,
)


# --------------------------------------------------------------- kernel
class TestMetricsKernel:
    def test_counter_labels_and_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "events", labels=("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.5
        assert counter.value(kind="b") == 1.0
        assert counter.value(kind="never") == 0.0

    def test_wrong_label_set_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", labels=("kind",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(flavor="a")
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(kind="a", extra="b")

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.add(1.0)
        gauge.add(1.0)
        gauge.add(-1.0)
        assert gauge.value() == 1.0
        gauge.set(7.0)
        assert gauge.value() == 7.0

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds",
                                       buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        series = histogram._series[()]
        assert series.counts == [1, 2, 1, 1]  # final slot is +Inf
        assert series.count == 5
        assert series.sum == pytest.approx(5.605)

    def test_histogram_rejects_unsorted_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad", buckets=(1.0, 0.5))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("dup", buckets=(0.5, 0.5))

    def test_get_or_create_shares_and_validates(self):
        registry = MetricsRegistry()
        first = registry.counter("shared_total", labels=("kind",))
        again = registry.counter("shared_total", labels=("kind",))
        assert first is again
        with pytest.raises(ValueError, match="different kind or label"):
            registry.gauge("shared_total", labels=("kind",))
        with pytest.raises(ValueError, match="different kind or label"):
            registry.counter("shared_total", labels=("other",))

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("events_total")
        histogram = registry.histogram("latency_seconds")
        counter.inc()
        histogram.observe(0.5)
        assert counter.value() == 0.0
        assert registry.snapshot()["metrics"] == []
        registry.enable()
        counter.inc()
        assert counter.value() == 1.0

    def test_reset_clears_series_keeps_families(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        counter.inc()
        registry.reset()
        assert counter.value() == 0.0
        assert registry.counter("events_total") is counter

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "as", labels=("kind",)).inc(kind="x")
        registry.counter("quiet_total")  # empty families are omitted
        snap = registry.snapshot()
        assert snap["worker"] == worker_identity()
        assert snap["metrics"] == [{
            "name": "a_total", "kind": "counter", "help": "as",
            "labels": ["kind"], "series": [[["x"], 1.0]],
        }]


class TestBoundSeries:
    """``family.labels(...)`` binds a series once; recording through it
    follows the registry's lifecycle exactly as the keyword form does."""

    def test_bound_and_keyword_forms_share_one_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", labels=("kind",))
        bound = counter.labels(kind="a")
        assert registry.snapshot()["metrics"] == []  # binding records nothing
        bound.inc()
        counter.inc(2.0, kind="a")
        assert bound.value() == counter.value(kind="a") == 3.0
        gauge = registry.gauge("inflight", labels=("shard",)).labels(shard=0)
        gauge.add(2.0)
        gauge.set(5.0)
        assert gauge.value() == 5.0
        histogram = registry.histogram("latency_seconds", labels=("route",),
                                       buckets=(0.1, 1.0)).labels(route="/x")
        histogram.observe(0.5)
        by_name = {family["name"]: family
                   for family in registry.snapshot()["metrics"]}
        assert by_name["latency_seconds"]["series"] == [
            [["/x"], {"buckets": [0, 1, 0], "sum": 0.5, "count": 1}]]

    def test_series_bound_before_reset_counts_from_zero_after_it(self):
        # Forked workers reset at start, below series bound at import.
        registry = MetricsRegistry()
        bound = registry.counter("events_total", labels=("kind",)).labels(
            kind="a")
        histogram = registry.histogram("latency_seconds").labels()
        bound.inc(5.0)
        histogram.observe(0.5)
        registry.reset()
        assert registry.snapshot()["metrics"] == []
        bound.inc()
        histogram.observe(0.5)
        assert bound.value() == 1.0
        assert histogram._series[()].count == 1

    def test_re_enabled_registry_records_through_earlier_bindings(self):
        registry = MetricsRegistry()
        bound = registry.counter("events_total").labels()
        bound.inc()
        registry.disable()
        bound.inc()
        assert bound.value() == 1.0
        registry.enable()
        bound.inc()
        assert bound.value() == 2.0

    def test_concurrent_increments_sum_exactly(self):
        registry = MetricsRegistry()
        bound = registry.counter("events_total", labels=("kind",)).labels(
            kind="a")
        barrier = threading.Barrier(8)

        def bump():
            barrier.wait()
            for _ in range(20_000):
                bound.inc()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=bump) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        assert bound.value() == 8 * 20_000

    def test_wrong_label_set_fails_at_bind_time(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("events_total", labels=("kind",))
        with pytest.raises(ValueError, match=r"events_total expects labels "
                                             r"\('kind',\), got \['flavor'\]"):
            counter.labels(flavor="a")
        with pytest.raises(ValueError, match="expects labels"):
            counter.labels(kind="a", extra="b")
        with pytest.raises(ValueError, match="expects labels"):
            counter.labels()

    def test_process_registry_bindings_pickle_by_name(self):
        tracker = repro.Tracker.create("hh/P1", num_sites=2, epsilon=0.5)
        clone = pickle.loads(pickle.dumps(tracker))
        enabled = REGISTRY.enabled
        REGISTRY.enable()
        try:
            before = tracker._pushes.value()
            clone.push(0, ("a", 1.0))  # records into the original's series
            assert tracker._pushes.value() == before + 1
        finally:
            REGISTRY.enable() if enabled else REGISTRY.disable()
        private = MetricsRegistry().counter("events_total").labels()
        with pytest.raises(TypeError, match="another registry"):
            pickle.dumps(private)


class TestMergeAndRender:
    @staticmethod
    def _snapshot(worker, count):
        registry = MetricsRegistry()
        registry.counter("events_total", labels=("kind",)).inc(count, kind="a")
        registry.histogram("latency_seconds",
                           buckets=(0.1, 1.0)).observe(0.05)
        snap = registry.snapshot()
        snap["worker"] = worker
        return snap

    def test_merge_sums_distinct_workers(self):
        merged = merge_snapshots([self._snapshot("host:1", 2),
                                  self._snapshot("host:2", 3)])
        by_name = {family["name"]: family for family in merged}
        assert by_name["events_total"]["series"] == [[["a"], 5.0]]
        histogram = by_name["latency_seconds"]["series"][0][1]
        assert histogram["buckets"] == [2, 0, 0]
        assert histogram["count"] == 2

    def test_merge_dedupes_same_worker_identity(self):
        snap = self._snapshot("host:1", 2)
        merged = merge_snapshots([snap, snap, self._snapshot("host:1", 9)])
        by_name = {family["name"]: family for family in merged}
        assert by_name["events_total"]["series"] == [[["a"], 2.0]]

    def test_merge_skips_none_and_empty(self):
        assert merge_snapshots([None, {}, self._snapshot("h:1", 1)])

    def test_render_prometheus_text(self):
        merged = merge_snapshots([self._snapshot("host:1", 2)])
        text = render_prometheus(merged)
        assert "# TYPE events_total counter" in text
        assert 'events_total{kind="a"} 2' in text
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_sum 0.05" in text
        assert "latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", labels=("route",)).inc(
            route='a"b\\c\nd')
        text = render_prometheus(merge_snapshots([registry.snapshot()]))
        assert 'route="a\\"b\\\\c\\nd"' in text


# ------------------------------------------------------------- logging
@pytest.fixture()
def repro_logger_state():
    """Snapshot and restore the ``repro`` logger across a test."""
    root = logging.getLogger("repro")
    saved = (root.handlers[:], root.level, root.propagate)
    yield root
    root.handlers[:], root.level, root.propagate = saved


class TestJsonLogging:
    def test_one_json_object_per_line_with_extras(self, repro_logger_state):
        stream = io.StringIO()
        configure_json_logging("debug", stream=stream)
        logger = get_logger("gateway")
        logger.info("request", extra={"route": "/v1/push", "status": 200})
        logger.debug("frame", extra={"op": "call"})
        lines = [json.loads(line)
                 for line in stream.getvalue().strip().splitlines()]
        assert lines[0]["message"] == "request"
        assert lines[0]["level"] == "info"
        assert lines[0]["logger"] == "repro.gateway"
        assert lines[0]["route"] == "/v1/push"
        assert lines[0]["status"] == 200
        assert lines[1]["level"] == "debug"
        assert lines[1]["op"] == "call"

    def test_trace_id_attaches_from_context(self, repro_logger_state):
        stream = io.StringIO()
        configure_json_logging("info", stream=stream)
        logger = get_logger("cluster")
        with trace_context("feedc0de00000001"):
            logger.info("inside")
        logger.info("outside")
        first, second = [json.loads(line)
                         for line in stream.getvalue().strip().splitlines()]
        assert first["trace_id"] == "feedc0de00000001"
        assert "trace_id" not in second

    def test_formatter_renders_exceptions(self):
        formatter = JsonLogFormatter()
        import sys

        try:
            raise RuntimeError("boom")
        except RuntimeError:
            record = logging.LogRecord("repro.t", logging.ERROR, __file__, 1,
                                       "failed", (), exc_info=sys.exc_info())
        doc = json.loads(formatter.format(record))
        assert doc["message"] == "failed"
        assert "RuntimeError: boom" in doc["exc"]

    def test_new_trace_id_shape(self):
        first, second = new_trace_id(), new_trace_id()
        assert len(first) == 16 and int(first, 16) >= 0
        assert first != second


# --------------------------------------------- trace-on-the-wire frames
class TestTraceOnWireFrames:
    def test_untraced_frames_carry_no_trace_field(self):
        frame = encode_command("stop")
        assert b"trace" not in frame

    def test_trace_field_rebinds_decoder_context(self):
        traced = encode_command("stop", trace="abcdef0123456789")
        plain = encode_command("stop")
        with trace_context(None):
            decode_command(traced)
            assert current_trace_id() == "abcdef0123456789"
            # The next untraced frame clears it — no stale correlation.
            decode_command(plain)
            assert current_trace_id() is None


# ----------------------------------------------------- end-to-end sweep
def _parse_counter_total(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + "{") or line == name or \
                line.startswith(name + " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


class TestClusterMetricsSurface:
    def test_socket_cluster_gateway_metrics_end_to_end(self):
        """Concurrent pushes + queries over a 2-shard socket cluster, a
        mid-stream worker kill, then one merged /v1/metrics document."""
        with WorkerServer() as server:
            cluster = ShardedTracker.create(
                "hh/P2", shards=2, backend="socket",
                backend_options={"addresses": [server.address],
                                 "reconnect_backoff": 0.05},
                num_sites=5, epsilon=0.1, chunk_size=50)
            try:
                with Gateway(cluster) as gateway:
                    def push_some(offset):
                        with GatewayClient(gateway.url) as client:
                            for index in range(10):
                                client.push(items=[[offset + index, 1.0]])

                    threads = [threading.Thread(target=push_some,
                                                args=(base * 100,))
                               for base in range(4)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    with GatewayClient(gateway.url) as client:
                        client.query("total_weight")
                        # Sever every live worker session; the next pushes
                        # must heal by reconnect + replay.
                        assert server.kill_sessions() > 0
                        for index in range(10):
                            client.push(items=[[index, 2.0]])
                        answer = client.query("total_weight")
                        health = client.healthz()
                        text = client.metrics()
                    assert answer["estimate"] == pytest.approx(60.0)
                    assert health["status"] == "ok"
                    assert health["shards"] == {"0": "ok", "1": "ok"}
            finally:
                cluster.close()

        # Gateway-side series: per-route counters and latency histograms.
        assert "# TYPE repro_gateway_requests_total counter" in text
        assert 'route="/v1/push"' in text
        assert 'repro_gateway_request_seconds_bucket{route="/v1/push"' in text
        assert "repro_gateway_inflight_requests" in text
        # Tracker/cluster-side series ride back on the stats piggyback.
        assert "repro_cluster_pushes_total" in text
        assert "repro_cluster_items_total" in text
        assert "repro_tracker_items_total" in text
        # Wire-backend series: the kill must show up as reconnects and
        # replayed frames (counts are global, so lower bounds only).
        assert _parse_counter_total(
            text, "repro_backend_reconnects_total") >= 1
        assert _parse_counter_total(
            text, "repro_backend_replay_frames_total") >= 1
        assert "repro_backend_call_seconds_bucket" in text

    def test_liveness_reports_unreachable_shards(self):
        server = WorkerServer().start()
        cluster = ShardedTracker.create(
            "hh/P2", shards=2, backend="socket",
            backend_options={"addresses": [server.address],
                             "reconnect_backoff": 0.02,
                             "reconnect_attempts": 1},
            num_sites=5, epsilon=0.1)
        try:
            assert cluster.liveness() == {"0": "ok", "1": "ok"}
            # Stop accepting AND sever live sessions: the probe's reconnect
            # now has nowhere to go.
            server.stop()
            server.kill_sessions()
            degraded = cluster.liveness()
            assert any(state.startswith("unreachable")
                       for state in degraded.values())
        finally:
            try:
                cluster.close()
            except Exception:
                pass

    def test_sharded_metrics_snapshot_dedupes_embedded_workers(self):
        cluster = ShardedTracker.create("hh/P2", shards=2, backend="thread",
                                        num_sites=5, epsilon=0.1)
        try:
            cluster.push_batch([(1, 1.0), (2, 2.0)])
            cluster.flush()
            snapshots = cluster.metrics_snapshot()
            merged = merge_snapshots(snapshots)
            names = {family["name"] for family in merged}
            assert "repro_cluster_items_total" in names
            assert "repro_tracker_items_total" in names
            # Thread shards share the parent registry: identity dedupe
            # must collapse them to one worker's snapshot.
            workers = [snap["worker"] for snap in snapshots if snap]
            assert len(set(workers)) == 1
        finally:
            cluster.close()


    def test_stats_carry_counts_and_metrics_merge_process_workers(self):
        """``stats()`` asks each shard for its counts alone, with the same
        values as before; the metrics view still fetches every worker's
        registry and merges its series."""
        rows = [[float(index), 1.0, -2.0] for index in range(40)]
        params = dict(num_sites=4, dimension=3, epsilon=0.2)
        with ShardedTracker.create("matrix/P2", shards=2, backend="serial",
                                   **params) as reference:
            reference.push_batch(rows)
            expected = reference.stats()
        with ShardedTracker.create("matrix/P2", shards=2, backend="process",
                                   **params) as cluster:
            cluster.push_batch(rows)
            stats = cluster.stats()
            snapshots = cluster.metrics_snapshot()
        assert stats.items_processed == expected.items_processed == 40
        assert stats.total_messages == expected.total_messages
        assert stats.message_counts == expected.message_counts
        assert stats.per_shard == expected.per_shard
        # This process and two worker processes, each with its own registry.
        assert len({snap["worker"] for snap in snapshots if snap}) == 3
        names = {family["name"] for family in merge_snapshots(snapshots)}
        assert "repro_tracker_items_total" in names


# ----------------------------------------------------- overhead guard
class TestInstrumentationOverhead:
    def test_instrumented_ingest_within_five_percent(self):
        """The hh/P3 batched ingest path must not slow measurably with the
        registry enabled vs disabled (the zero-cost-when-disabled flag is
        the baseline; enabled adds one counter bump per batch)."""
        from repro.data.zipfian import ZipfianStreamGenerator
        from repro.streaming.items import WeightedItemBatch

        sample = ZipfianStreamGenerator(universe_size=5_000, skew=2.0,
                                        beta=100.0, seed=7).generate(40_000)
        batch = WeightedItemBatch.from_pairs(sample.items)

        def run_once() -> float:
            tracker = repro.Tracker.create("hh/P3", num_sites=10,
                                           epsilon=0.05, chunk_size=4096)
            started = perf_counter()
            tracker.run(batch, query_at_end=False)
            return perf_counter() - started

        enabled_state = REGISTRY.enabled
        timings = {True: [], False: []}
        try:
            run_once()  # warm caches outside the measurement
            for _ in range(5):
                for enabled in (True, False):
                    REGISTRY.enable() if enabled else REGISTRY.disable()
                    timings[enabled].append(run_once())
        finally:
            REGISTRY.enable() if enabled_state else REGISTRY.disable()

        fastest_enabled = min(timings[True])
        fastest_disabled = min(timings[False])
        # 5% relative headroom plus 5ms absolute slack so scheduler noise
        # on tiny absolute timings cannot produce false failures.
        assert fastest_enabled <= fastest_disabled * 1.05 + 0.005, (
            f"instrumented ingest {fastest_enabled:.4f}s vs disabled "
            f"{fastest_disabled:.4f}s exceeds the 5% overhead budget")


class TestPerItemOverhead:
    def test_one_item_push_metrics_cost_under_sixty_percent(self):
        """A one-item hh/P2 ``Tracker.push`` is the paper's unit of work: its
        two counter bumps must stay well below the protocol's own cost.

        On a 2-vCPU host, recording with keyword labels (a label tuple and
        ``str()`` per call) measured +124 to +154 %; bound series measure
        +18 to +38 %."""
        from repro.data.zipfian import ZipfianStreamGenerator

        items = ZipfianStreamGenerator(universe_size=1_000, skew=1.5,
                                       beta=10.0, seed=3).generate(2_000).items
        tracker = repro.Tracker.create("hh/P2", num_sites=10, epsilon=0.01)
        push = tracker.push

        def per_push() -> float:
            started = perf_counter()
            for index, item in enumerate(items):
                push(index % 10, item)
            return (perf_counter() - started) / len(items)

        enabled_state = REGISTRY.enabled
        timings = {True: [], False: []}
        try:
            per_push()  # warm the protocol's tables outside the measurement
            for round_index in range(15):
                order = (True, False) if round_index % 2 else (False, True)
                for enabled in order:
                    REGISTRY.enable() if enabled else REGISTRY.disable()
                    timings[enabled].append(per_push())
        finally:
            REGISTRY.enable() if enabled_state else REGISTRY.disable()

        fastest_enabled = min(timings[True])
        fastest_disabled = min(timings[False])
        assert fastest_enabled <= fastest_disabled * 1.6, (
            f"one-item push {fastest_enabled * 1e6:.2f}us with metrics vs "
            f"{fastest_disabled * 1e6:.2f}us without exceeds the 60% budget")
