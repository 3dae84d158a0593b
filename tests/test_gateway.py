"""Serving gateway: bit-identical concurrent serving plus the HTTP contract.

The tentpole property: answers served over HTTP to many concurrent clients
are **bit-identical** (same ``to_json`` document) to querying the same
``ShardedTracker`` directly — for every registered spec, seed-parameterized
via ``REPRO_PROPERTY_SEEDS`` like the rest of the property suites.  JSON is
a faithful transport here because ``json`` round-trips floats exactly
(``repr``-based) and ingest flows through the gateway's single-writer
queue in arrival order.

Alongside: ``Answer.from_dict`` round-trips for every query kind, the
concurrency pin (a slow query must not block ongoing pushes), and the HTTP
failure contract (401/400/404/405/413/504, partial-mode passthrough,
checkpointing through ``POST /v1/checkpoint``).
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time

import numpy as np
import pytest

import repro
from repro.api.queries import (
    Answer,
    ApproximationError,
    Covariance,
    Frequency,
    FrobeniusSquared,
    HeavyHitters,
    Norms,
    SketchMatrix,
    TotalWeight,
)
from repro.gateway import Gateway, GatewayClient, GatewayError

from test_api_state_roundtrip import HH_SPECS, MATRIX_SPECS, _params
from test_protocol_equivalence_properties import (
    SEEDS,
    hh_stream,
    matrix_stream,
)

CONCURRENT_CLIENTS = 8


# --------------------------------------------------------------------------
# Answer.from_dict: every query kind round-trips through its JSON document.
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def hh_tracker():
    tracker = repro.Tracker.create("hh/P2", num_sites=5, epsilon=0.1)
    tracker.push_batch([0] * 6, [("cat", 5.0), ("dog", 3.0), ("cat", 1.0),
                                 ("owl", 2.0), ("cat", 4.0), ("dog", 1.0)])
    return tracker


@pytest.fixture(scope="module")
def matrix_tracker():
    tracker = repro.Tracker.create("matrix/P2", num_sites=5, dimension=4,
                                   epsilon=0.2)
    rows = np.random.default_rng(2014).normal(size=(40, 4))
    tracker.push_batch(np.zeros(40, dtype=np.int64), rows)
    return tracker


HH_QUERIES = [
    HeavyHitters(phi=0.1),
    Frequency(element="cat"),
    TotalWeight(),
]
MATRIX_QUERIES = [
    Covariance(),
    Norms(directions=np.asarray([1.0, 0.0, 0.0, 0.0])),
    SketchMatrix(),
    FrobeniusSquared(),
    ApproximationError(),
]


class TestAnswerFromDict:
    @pytest.mark.parametrize("query", HH_QUERIES,
                             ids=[type(q).__name__ for q in HH_QUERIES])
    def test_hh_round_trip(self, hh_tracker, query):
        self._assert_round_trip(hh_tracker.query(query))

    @pytest.mark.parametrize("query", MATRIX_QUERIES,
                             ids=[type(q).__name__ for q in MATRIX_QUERIES])
    def test_matrix_round_trip(self, matrix_tracker, query):
        self._assert_round_trip(matrix_tracker.query(query))

    @staticmethod
    def _assert_round_trip(answer: Answer) -> None:
        document = json.loads(answer.to_json())
        back = Answer.from_dict(document)
        assert type(back) is type(answer)
        assert type(back.query) is type(answer.query)
        # Bit-identical re-serialization is the round-trip property: every
        # float survives exactly, arrays/tuples keep shape and order.
        assert back.to_json() == answer.to_json()
        assert back.missing_shards == ()

    def test_partial_answer_round_trips_missing_shards(self, hh_tracker):
        degraded = dataclasses.replace(hh_tracker.query(TotalWeight()),
                                       missing_shards=(1, 3))
        back = Answer.from_dict(json.loads(degraded.to_json()))
        assert back.missing_shards == (1, 3)
        assert back.is_partial

    def test_every_query_kind_is_covered(self):
        from repro.api.queries import _QUERY_TYPES

        covered = {type(q).__name__ for q in HH_QUERIES + MATRIX_QUERIES}
        assert covered == set(_QUERY_TYPES)

    def test_rejects_non_dict_and_unknown_names(self):
        with pytest.raises(ValueError, match="needs a to_dict"):
            Answer.from_dict("nope")
        with pytest.raises(ValueError, match="unknown answer type"):
            Answer.from_dict({"answer": "MysteryAnswer", "query": {}})
        with pytest.raises(ValueError, match="unknown query type"):
            Answer.from_dict({"answer": "TotalWeightAnswer",
                              "query": {"type": "Mystery"}})
        with pytest.raises(ValueError, match="no query dictionary"):
            Answer.from_dict({"answer": "TotalWeightAnswer"})


# --------------------------------------------------------------------------
# The tentpole: concurrent HTTP serving is bit-identical to direct queries
# for every registered spec.
# --------------------------------------------------------------------------
def _gateway_queries(spec: str, sample, dimension: int):
    """(kind, params, body, typed query) per domain — every GET/POST shape."""
    if spec in HH_SPECS:
        element = int(sample.items[0][0])
        return [
            ("heavy_hitters", {"phi": 0.1}, None, HeavyHitters(phi=0.1)),
            ("frequency", {"element": element}, None,
             Frequency(element=element)),
            ("total_weight", None, None, TotalWeight()),
        ]
    direction = [1.0 if index == 0 else 0.0 for index in range(dimension)]
    return [
        ("covariance", None, None, Covariance()),
        ("norms", None, {"directions": direction},
         Norms(directions=np.asarray(direction, dtype=np.float64))),
        ("sketch", None, None, SketchMatrix()),
        ("frobenius", None, None, FrobeniusSquared()),
        ("error", None, None, ApproximationError()),
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
def test_gateway_serves_bit_identical_answers(spec, seed):
    if spec in HH_SPECS:
        sample, batch, sites = hh_stream(seed)
        dimension = None
        payload = {"items": [[int(element), float(weight)]
                             for element, weight in sample.items]}
        direct_items = [(int(element), float(weight))
                        for element, weight in sample.items]
    else:
        dataset, batch, sites = matrix_stream(seed)
        sample, dimension = None, dataset.dimension
        payload = {"rows": batch.values.tolist()}
        direct_items = batch.values
    params = _params(spec, seed, dimension)
    site_ids = [int(site) for site in sites]

    direct = repro.ShardedTracker.create(spec, shards=2, backend="thread",
                                         chunk_size=50, **params)
    served = repro.ShardedTracker.create(spec, shards=2, backend="thread",
                                         chunk_size=50, **params)
    try:
        with Gateway(served) as gateway:
            ingest = GatewayClient(gateway.url)
            reply = ingest.push(site_ids=site_ids, **payload)
            ingest.close()
            assert reply == {"accepted": len(batch)}
            direct.push_batch(direct_items, site_ids=site_ids)
            direct.flush()

            queries = _gateway_queries(spec, sample, dimension)
            expected = [json.loads(direct.query(query).to_json())
                        for _kind, _params_, _body, query in queries]

            mismatches = []
            failures = []

            def client_loop(worker: int) -> None:
                try:
                    client = GatewayClient(gateway.url)
                    for (kind, params_, body, _query), want in zip(queries,
                                                                   expected):
                        document = client.query(kind, params=params_,
                                                body=body)
                        assert document.pop("partial") is False
                        if document != want:
                            mismatches.append((worker, kind))
                    client.close()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failures.append(exc)

            threads = [threading.Thread(target=client_loop, args=(worker,))
                       for worker in range(CONCURRENT_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if failures:
                raise failures[0]
            assert mismatches == []
    finally:
        direct.close()
        served.close()


def test_typed_query_equals_direct_answer():
    """GatewayClient.typed_query returns the very Answer the tracker gives."""
    sample, batch, sites = hh_stream(SEEDS[0])
    params = _params("hh/P2", SEEDS[0], None)
    direct = repro.ShardedTracker.create("hh/P2", shards=2, backend="thread",
                                         chunk_size=50, **params)
    served = repro.ShardedTracker.create("hh/P2", shards=2, backend="thread",
                                         chunk_size=50, **params)
    items = [(int(element), float(weight)) for element, weight in sample.items]
    site_ids = [int(site) for site in sites]
    try:
        with Gateway(served) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=items, site_ids=site_ids)
                typed = client.typed_query("heavy_hitters", {"phi": 0.1})
        direct.push_batch(items, site_ids=site_ids)
        expected = direct.query(HeavyHitters(phi=0.1))
        assert typed.to_json() == expected.to_json()
        assert typed.query == expected.query
    finally:
        direct.close()
        served.close()


# --------------------------------------------------------------------------
# Concurrency pin: a slow query must not stall the ingest path.
# --------------------------------------------------------------------------
def _slow_query(tracker, delay: float):
    real_query = tracker.query

    def query(query, *, partial=False):
        time.sleep(delay)
        return real_query(query, partial=partial)

    tracker.query = query


def test_slow_query_interleaves_with_pushes():
    cluster = repro.ShardedTracker.create("hh/P2", shards=2, backend="thread",
                                          num_sites=5, epsilon=0.1)
    _slow_query(cluster, delay=0.8)
    try:
        with Gateway(cluster) as gateway:
            assert gateway.concurrent_queries  # thread backend: reader pool
            result = {}

            def slow_client():
                with GatewayClient(gateway.url) as client:
                    begin = time.monotonic()
                    document = client.query("total_weight")
                    result["elapsed"] = time.monotonic() - begin
                    result["document"] = document

            query_thread = threading.Thread(target=slow_client)
            query_thread.start()
            time.sleep(0.1)  # let the slow query occupy the reader pool

            with GatewayClient(gateway.url) as pusher:
                begin = time.monotonic()
                for index in range(10):
                    assert pusher.push(items=[[index, 1.0]]) == {"accepted": 1}
                push_elapsed = time.monotonic() - begin
            query_thread.join()

            # The pushes finished while the slow query slept: ingest rides
            # the writer queue, queries the reader pool.
            assert result["elapsed"] >= 0.8
            assert push_elapsed < result["elapsed"]
            assert result["document"]["answer"] == "TotalWeightAnswer"

            with GatewayClient(gateway.url) as client:
                final = client.query("total_weight")
            assert final["estimate"] == pytest.approx(10.0)
    finally:
        cluster.close()


# --------------------------------------------------------------------------
# The HTTP contract: auth, errors, limits, partial mode, checkpointing.
# --------------------------------------------------------------------------
@pytest.fixture()
def served_cluster():
    cluster = repro.ShardedTracker.create("hh/P2", shards=2, backend="thread",
                                          num_sites=5, epsilon=0.1)
    yield cluster
    cluster.close()


class TestHttpContract:
    def test_bearer_auth(self, served_cluster):
        with Gateway(served_cluster, auth_token="s3cret") as gateway:
            anonymous = GatewayClient(gateway.url)
            # The liveness probe stays open for orchestration...
            assert anonymous.healthz()["status"] == "ok"
            # ...every real route 401s without (or with a wrong) token.
            with pytest.raises(GatewayError) as excinfo:
                anonymous.stats()
            assert excinfo.value.status == 401
            anonymous.close()
            wrong = GatewayClient(gateway.url, auth_token="wrong")
            with pytest.raises(GatewayError) as excinfo:
                wrong.push(items=[[1, 1.0]])
            assert excinfo.value.status == 401
            wrong.close()
            with GatewayClient(gateway.url, auth_token="s3cret") as client:
                assert client.push(items=[[1, 1.0]]) == {"accepted": 1}

    def test_unknown_route_and_kind_404(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.request("GET", "/v1/nope")
                assert excinfo.value.status == 404
                with pytest.raises(GatewayError) as excinfo:
                    client.query("median")
                assert excinfo.value.status == 404
                assert "heavy_hitters" in excinfo.value.message

    def test_wrong_method_405(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.request("GET", "/v1/push")
                assert excinfo.value.status == 405
                with pytest.raises(GatewayError) as excinfo:
                    client.request("POST", "/v1/stats", {})
                assert excinfo.value.status == 405

    def test_bad_requests_400(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.query("frequency")  # no element
                assert excinfo.value.status == 400
                with pytest.raises(GatewayError) as excinfo:
                    client.request("POST", "/v1/push", {})  # nothing to push
                assert excinfo.value.status == 400
                with pytest.raises(GatewayError) as excinfo:
                    client.push(items=[[1, 1.0]], site_ids=[0, 1])  # length
                assert excinfo.value.status == 400
            # Malformed JSON straight over the socket.
            host, port = gateway.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("POST", "/v1/push", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            conn.close()

    def test_malformed_push_is_the_pushers_400(self):
        """Wrong-width rows / out-of-range sites fail the push that sent
        them; the next (unrelated) request is served normally."""
        with repro.ShardedTracker.create(
                "matrix/P2", shards=2, backend="process", num_sites=3,
                dimension=3, epsilon=0.1) as cluster, \
                Gateway(cluster) as gateway, \
                GatewayClient(gateway.url) as client:
            assert client.push(rows=[[1.0, 0.0, 0.0]]) == {"accepted": 1}
            for bad in ({"rows": [[1.0, 2.0, 3.0, 4.0]]},
                        {"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                         "site_ids": [0, 99]}):
                with pytest.raises(GatewayError) as excinfo:
                    client.push(**bad)
                assert excinfo.value.status == 400
                assert client.query("frobenius")["estimate"] == 1.0
            assert client.stats()["items_processed"] == 1

    def test_oversized_body_413(self, served_cluster):
        with Gateway(served_cluster, max_body_bytes=1024) as gateway:
            with GatewayClient(gateway.url) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.push(items=[[index, 1.0] for index in range(500)])
                assert excinfo.value.status == 413

    def test_deadline_504(self, served_cluster):
        _slow_query(served_cluster, delay=1.5)
        with Gateway(served_cluster, request_timeout=0.2) as gateway:
            with GatewayClient(gateway.url) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.query("total_weight")
                assert excinfo.value.status == 504
                assert "deadline" in excinfo.value.message

    def test_partial_passthrough(self, served_cluster):
        real_query = served_cluster.query
        seen = []

        def query(query, *, partial=False):
            seen.append(partial)
            answer = real_query(query, partial=partial)
            if partial:
                answer = dataclasses.replace(answer, missing_shards=(1,))
            return answer

        served_cluster.query = query
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                healthy = client.query("total_weight")
                degraded = client.query("total_weight", partial=True)
        assert seen == [False, True]
        assert healthy["partial"] is False
        assert degraded["partial"] is True
        assert degraded["missing_shards"] == [1]

    def test_partial_on_plain_tracker_400(self):
        tracker = repro.Tracker.create("hh/P2", num_sites=5, epsilon=0.1)
        with Gateway(tracker) as gateway:
            with GatewayClient(gateway.url) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.query("total_weight", partial=True)
                assert excinfo.value.status == 400

    def test_checkpoint_route_round_trips(self, served_cluster, tmp_path):
        path = tmp_path / "served.ckpt"
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[index % 7, 2.0] for index in range(100)])
                saved = client.checkpoint(path)
        assert saved == {"saved": str(path), "spec": "hh/P2"}
        resumed = repro.ShardedTracker.load(path)
        try:
            assert (resumed.query(TotalWeight()).to_json()
                    == served_cluster.query(TotalWeight()).to_json())
        finally:
            resumed.close()

    def test_stats_and_healthz_documents(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 1.0], [2, 2.0]])
                health = client.healthz()
                stats = client.stats()
        assert health["status"] == "ok"
        assert health["spec"] == "hh/P2"
        assert health["sharded"] is True
        assert health["shards"] == {"0": "ok", "1": "ok"}
        assert stats["items_processed"] == 2
        assert stats["spec"] == "hh/P2"

    def test_healthz_503_when_a_shard_is_unreachable(self, served_cluster):
        served_cluster.liveness = lambda: {
            "0": "ok", "1": "unreachable: BackendError: shard 1 lost"}
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                health = client.healthz()
            # The degraded report comes back as a document, but over the
            # wire it is a 503 — what a load balancer keys on.
            host, port = gateway.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/v1/healthz")
            assert conn.getresponse().status == 503
            conn.close()
        assert health["status"] == "degraded"
        assert health["shards"]["0"] == "ok"
        assert health["shards"]["1"].startswith("unreachable")

    def test_metrics_route_serves_prometheus_text(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 1.0], [2, 2.0]])
                client.query("total_weight")
                text = client.metrics()
        assert "# TYPE repro_gateway_requests_total counter" in text
        assert 'route="/v1/push"' in text
        assert "repro_gateway_request_seconds_bucket" in text
        assert "repro_cluster_items_total" in text

    def test_metrics_export_per_shard_items_and_messages(self, served_cluster):
        """The paper's budget, shard by shard: the two gauges are set from
        the stats reply the scrape already fetches and sum to /v1/stats."""
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[element % 7, 1.0 + element]
                                   for element in range(40)])
                text = client.metrics()
                stats = client.stats()

        def shard_values(name):
            values = {}
            for line in text.splitlines():
                if line.startswith(name + "{") and 'spec="hh/P2"' in line:
                    shard = line.split('shard="')[1].split('"')[0]
                    values[shard] = float(line.rsplit(" ", 1)[1])
            return values

        items = shard_values("repro_cluster_shard_items")
        messages = shard_values("repro_cluster_shard_messages")
        assert sorted(items) == sorted(messages) == ["0", "1"]
        assert [items["0"], items["1"]] == [24, 16]  # sites {0,2,4} / {1,3}
        assert sum(items.values()) == stats["items_processed"] == 40
        assert sum(messages.values()) == stats["total_messages"] > 0

    def test_metrics_auth_follows_open_metrics_flag(self, served_cluster):
        with Gateway(served_cluster, auth_token="s3cret") as gateway:
            anonymous = GatewayClient(gateway.url)
            with pytest.raises(GatewayError) as excinfo:
                anonymous.metrics()
            assert excinfo.value.status == 401
            anonymous.close()
            with GatewayClient(gateway.url, auth_token="s3cret") as client:
                assert "repro_gateway_requests_total" in client.metrics()
        with Gateway(served_cluster, auth_token="s3cret",
                     open_metrics=True) as gateway:
            with GatewayClient(gateway.url) as anonymous:
                assert "repro_gateway_requests_total" in anonymous.metrics()

    def test_trace_id_echoes_in_response_header(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            host, port = gateway.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/v1/healthz",
                         headers={"X-Trace-Id": "cafe0123cafe0123"})
            response = conn.getresponse()
            response.read()
            assert response.getheader("X-Trace-Id") == "cafe0123cafe0123"
            # A request without the header gets a minted ID back.
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            response.read()
            minted = response.getheader("X-Trace-Id")
            assert minted and minted != "cafe0123cafe0123"
            conn.close()


# --------------------------------------------------------------------------
# GatewayClient's one-shot reconnect: a dropped keep-alive connection heals
# exactly once; a second transport failure surfaces to the caller.
# --------------------------------------------------------------------------
class _OneResponsePerConnectionServer:
    """An HTTP stub that closes every connection after a single response.

    From the client's perspective this is a gateway whose keep-alive reaping
    races the next request: the advertised ``Connection: keep-alive`` socket
    is dead by the time the client reuses it.
    """

    _BODY = b'{"status":"ok"}'
    _RESPONSE = (b"HTTP/1.1 200 OK\r\n"
                 b"Content-Type: application/json\r\n"
                 b"Content-Length: %d\r\n"
                 b"Connection: keep-alive\r\n\r\n" % len(_BODY)) + _BODY

    def __init__(self):
        import socket as socket_module

        self._sock = socket_module.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.2)
        self.port = self._sock.getsockname()[1]
        self.connections_accepted = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        import socket as socket_module

        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket_module.timeout:
                continue
            except OSError:
                return
            self.connections_accepted += 1
            try:
                conn.settimeout(5.0)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                if data:
                    conn.sendall(self._RESPONSE)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def stop(self):
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)


class TestClientReconnectRetry:
    def test_dropped_keep_alive_heals_exactly_once(self):
        server = _OneResponsePerConnectionServer()
        try:
            with GatewayClient(f"http://127.0.0.1:{server.port}") as client:
                # First request: fresh connection, clean exchange.
                assert client.request("GET", "/v1/healthz") == {"status": "ok"}
                assert server.connections_accepted == 1
                # The server has since closed that socket.  The retry loop
                # must reconnect exactly once and succeed transparently.
                assert client.request("GET", "/v1/healthz") == {"status": "ok"}
                assert server.connections_accepted == 2
                # And again: one reconnect per dropped exchange, every time.
                assert client.request("GET", "/v1/healthz") == {"status": "ok"}
                assert server.connections_accepted == 3
        finally:
            server.stop()

    def test_second_transport_failure_surfaces(self):
        server = _OneResponsePerConnectionServer()
        try:
            client = GatewayClient(f"http://127.0.0.1:{server.port}")
            assert client.request("GET", "/v1/healthz") == {"status": "ok"}
        finally:
            server.stop()
        # The stale keep-alive connection fails (first attempt), and the
        # reconnect attempt hits a closed port (second attempt) — which
        # must propagate, not loop.
        with pytest.raises(OSError):
            client.request("GET", "/v1/healthz")
        client.close()


# --------------------------------------------------------------------------
# Conditional GET: ETags, 304 revalidation, the client's document cache.
# --------------------------------------------------------------------------
class TestConditionalGet:
    @staticmethod
    def _raw_get(gateway, path, headers=None):
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", path, headers=headers or {})
            response = conn.getresponse()
            body = response.read()
            return (response.status,
                    {name.lower(): value
                     for name, value in response.getheaders()},
                    body)
        finally:
            conn.close()

    def test_etag_304_round_trip(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 5.0], [2, 3.0]])

            status, headers, body = self._raw_get(
                gateway, "/v1/query/total_weight")
            assert status == 200
            etag = headers["etag"]
            # The mandated shape: "<spec>-<epoch>-<query-hash>".
            assert etag.startswith('"hh/P2-')
            assert json.loads(body)["estimate"] == pytest.approx(8.0)

            status, headers, body = self._raw_get(
                gateway, "/v1/query/total_weight",
                {"If-None-Match": etag})
            assert status == 304
            assert body == b""
            assert headers["etag"] == etag

            # A wildcard or a list containing the ETag also revalidates.
            status, _headers, _body = self._raw_get(
                gateway, "/v1/query/total_weight",
                {"If-None-Match": f'"unrelated", {etag}'})
            assert status == 304
            status, _headers, _body = self._raw_get(
                gateway, "/v1/query/total_weight", {"If-None-Match": "*"})
            assert status == 304

    def test_push_moves_the_etag(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 5.0]])
                status, headers, _body = self._raw_get(
                    gateway, "/v1/query/total_weight")
                stale_etag = headers["etag"]
                client.push(items=[[2, 3.0]])
                status, headers, body = self._raw_get(
                    gateway, "/v1/query/total_weight",
                    {"If-None-Match": stale_etag})
                # The epoch moved, so the validator no longer matches: the
                # full fresh answer comes back, never a stale 304.
                assert status == 200
                assert headers["etag"] != stale_etag
                assert json.loads(body)["estimate"] == pytest.approx(8.0)

    def test_partial_answers_carry_no_etag(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 1.0]])
            status, headers, _body = self._raw_get(
                gateway, "/v1/query/total_weight?partial=true")
            assert status == 200
            assert "etag" not in headers

    def test_client_revalidates_and_counts_304s(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 5.0], [2, 3.0]])
                first = client.query("total_weight")
                assert client.not_modified == 0
                second = client.query("total_weight")
                assert client.not_modified == 1
                assert second == first
                # POST-body queries revalidate independently of GETs.
                third = client.query("heavy_hitters", body={"phi": 0.1})
                fourth = client.query("heavy_hitters", body={"phi": 0.1})
                assert client.not_modified == 2
                assert fourth == third
                # Ingest invalidates: the next query pays the full trip.
                client.push(items=[[3, 1.0]])
                fresh = client.query("total_weight")
                assert client.not_modified == 2
                assert fresh["estimate"] == pytest.approx(9.0)

    def test_client_etag_cache_disabled(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url, etag_cache_size=0) as client:
                client.push(items=[[1, 5.0]])
                client.query("total_weight")
                client.query("total_weight")
                assert client.not_modified == 0

    def test_typed_query_round_trips_through_the_304_path(self,
                                                          served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 5.0], [2, 3.0]])
                first = client.typed_query("heavy_hitters",
                                           params={"phi": 0.1})
                again = client.typed_query("heavy_hitters",
                                           params={"phi": 0.1})
                assert client.not_modified == 1
                assert again == first

    def test_not_modified_metric_counts_304s(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 1.0]])
                client.query("total_weight")
                client.query("total_weight")
                text = client.metrics()
        import re

        match = re.search(r'repro_gateway_not_modified_total'
                          r'\{route="/v1/query/total_weight"\} (\d+)', text)
        # The registry is process-global, so other tests may have counted
        # 304s already — the series must exist and cover this test's hit.
        assert match is not None
        assert int(match.group(1)) >= 1


# --------------------------------------------------------------------------
# Coalesced push dispatch: merged writes, per-request acks, exact totals.
# --------------------------------------------------------------------------
class TestCoalescedPushes:
    def test_concurrent_pushes_ack_individually_and_sum_exactly(
            self, served_cluster):
        clients, pushes_each = 6, 20
        with Gateway(served_cluster) as gateway:
            failures = []

            def pusher(worker):
                try:
                    with GatewayClient(gateway.url) as client:
                        for index in range(pushes_each):
                            reply = client.push(items=[
                                [worker * 1000 + index, 1.0],
                                [worker * 1000 + index, 2.0],
                                [worker, 1.0]])
                            assert reply == {"accepted": 3}
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)

            threads = [threading.Thread(target=pusher, args=(worker,))
                       for worker in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if failures:
                raise failures[0]
            with GatewayClient(gateway.url) as client:
                stats = client.stats()
        assert stats["items_processed"] == clients * pushes_each * 3

    def test_coalescing_disabled_with_zero_max_items(self, served_cluster):
        with Gateway(served_cluster, coalesce_max_items=0) as gateway:
            with GatewayClient(gateway.url) as client:
                for index in range(5):
                    assert client.push(items=[[index, 1.0]]) == \
                        {"accepted": 1}
                stats = client.stats()
        assert stats["items_processed"] == 5

    def test_mixed_hh_and_site_pushes_keep_exact_accounting(
            self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                assert client.push(items=[[1, 1.0]],
                                   site_ids=[0]) == {"accepted": 1}
                assert client.push(items=[[2, 2.0], [3, 3.0]]) == \
                    {"accepted": 2}
                assert client.push(items=[[4, 4.0]],
                                   site_ids=[1]) == {"accepted": 1}
                stats = client.stats()
                total = client.query("total_weight")
        assert stats["items_processed"] == 4
        assert total["estimate"] == pytest.approx(10.0)


# --------------------------------------------------------------------------
# Degraded /v1/stats: missing shards are a field, not a 500.
# --------------------------------------------------------------------------
def test_stats_route_reports_missing_shards_instead_of_500():
    from repro.cluster.backends import BackendError

    cluster = repro.ShardedTracker.create("hh/P2", shards=2, backend="thread",
                                          num_sites=5, epsilon=0.1)

    class _DeadShardBackend:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def call_all_partial(self, fn, *args):
            results, errors = self._inner.call_all_partial(fn, *args)
            results[1] = None
            errors[1] = BackendError("shard 1 lost")
            return results, errors

    try:
        with Gateway(cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 1.0], [2, 2.0]])
                cluster._backend = _DeadShardBackend(cluster._backend)
                stats = client.stats()
        assert stats["missing_shards"] == [1]
        assert stats["per_shard"][1] is None
        assert stats["items_processed"] >= 1
    finally:
        cluster._backend = cluster._backend._inner
        cluster.close()
