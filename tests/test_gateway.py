"""Serving gateway: bit-identical concurrent serving plus the HTTP contract.

The tentpole property: answers served over HTTP to many concurrent clients
are **bit-identical** (documents ``==`` ``Answer.to_dict()``) to querying
the same ``ShardedTracker`` directly — for every registered spec,
seed-parameterized via ``REPRO_PROPERTY_SEEDS`` like the rest of the
property suites, and in both representations: the wire frames
``GatewayClient`` negotiates (arrays ship as their bytes) and the JSON a
client that asks for nothing gets (``json`` round-trips floats exactly,
``repr``-based).  Ingest flows through the gateway's single-writer queue
in arrival order.

Alongside: ``Answer.from_dict`` round-trips for every query kind, the
concurrency pin (a slow query must not block ongoing pushes), the HTTP
failure contract (401/400/404/405/413/415/504, partial-mode passthrough,
checkpointing through ``POST /v1/checkpoint``) on both representations,
and the public port's codec: wire bodies decode to plain data only, and
fuzzed frames are a 4xx naming the cause, never a 500 or a poisoned shard.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import shutil
import socket
import ssl
import struct
import sys
import threading
import time
import zlib
from urllib.parse import urlencode, urlsplit

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    _jsonify,
)
from repro.api.state import tracker_frame
from repro.cluster import server_ssl_context
from repro.cluster.backends import BackendError
from repro.cluster.socket_backend import client_ssl_context
from repro.gateway import QUERY_KINDS, Gateway, GatewayClient, GatewayError
from repro.gateway.http import (
    DOCUMENT_KIND,
    JSON_TYPE,
    WIRE_TYPE,
    decode_document,
)
from repro.wire import pack_frame

from test_api_state_roundtrip import HH_SPECS, MATRIX_SPECS, _params
from test_cluster_tls import certs  # noqa: F401 - module-scoped fixture
from test_protocol_equivalence_properties import (
    SEEDS,
    hh_stream,
    matrix_stream,
)

from old_format import (
    Cls,
    Error,
    Generator,
    Member,
    NpType,
    NumDict,
    Obj,
    Raw,
    Ref,
    old_value,
)

CONCURRENT_CLIENTS = 8

#: The two representations every contract test runs under.
ENCODINGS = ("json", "wire")


class _JsonClient:
    """The curl fallback: JSON bodies and no ``Accept`` header, over raw
    ``http.client`` — the subset of ``GatewayClient`` the tests call."""

    def __init__(self, url: str):
        split = urlsplit(url)
        self._conn = http.client.HTTPConnection(split.hostname, split.port,
                                                timeout=30)

    def request(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": JSON_TYPE}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        assert response.getheader("Content-Type") == JSON_TYPE
        document = json.loads(data) if data else None
        if response.status >= 400:
            raise GatewayError(response.status, document["error"]["message"])
        return document

    def push(self, items=None, rows=None, site_ids=None):
        payload = {}
        if items is not None:
            payload["items"] = [list(item) for item in items]
        if rows is not None:
            payload["rows"] = np.asarray(rows, dtype=np.float64).tolist()
        if site_ids is not None:
            payload["site_ids"] = [int(site) for site in site_ids]
        return self.request("POST", "/v1/push", payload)

    def query(self, kind, params=None, body=None, partial=False):
        if body is not None:
            payload = dict(body, **(params or {}))
            if partial:
                payload["partial"] = True
            return self.request("POST", f"/v1/query/{kind}", payload)
        query = dict(params or {})
        if partial:
            query["partial"] = "true"
        suffix = f"?{urlencode(query)}" if query else ""
        return self.request("GET", f"/v1/query/{kind}{suffix}")

    def stats(self):
        return self.request("GET", "/v1/stats")

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _client(gateway, encoding):
    """``GatewayClient`` (which negotiates wire) or the JSON fallback."""
    if encoding == "wire":
        return GatewayClient(gateway.url)
    return _JsonClient(gateway.url)


def _post_raw(gateway, path, body, content_type=WIRE_TYPE):
    """POST arbitrary body bytes; returns ``(status, decoded document)``."""
    host, port = gateway.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": content_type,
                              "Accept": WIRE_TYPE})
        response = conn.getresponse()
        data = response.read()
        return response.status, decode_document(
            data, response.getheader("Content-Type", ""))
    finally:
        conn.close()


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


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
def test_gateway_serves_bit_identical_answers(spec, seed, encoding):
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
            with _client(gateway, encoding) as ingest:
                reply = ingest.push(site_ids=site_ids, **payload)
            assert reply == {"accepted": len(batch)}
            direct.push_batch(direct_items, site_ids=site_ids)
            direct.flush()

            queries = _gateway_queries(spec, sample, dimension)
            expected = [direct.query(query).to_dict()
                        for _kind, _params_, _body, query in queries]

            mismatches = []
            failures = []

            def client_loop(worker: int) -> None:
                try:
                    client = _client(gateway, encoding)
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


def test_client_speaks_wire_both_ways(served_cluster):
    """GatewayClient's bodies are wire frames and so are the answers."""
    seen = []
    with Gateway(served_cluster) as gateway:
        with GatewayClient(gateway.url) as client:
            exchange = client._exchange

            def spy(method, path, body, extra_headers=None):
                status, headers, data = exchange(method, path, body,
                                                 extra_headers)
                seen.append((body, headers["content-type"],
                             headers.get("vary")))
                return status, headers, data

            client._exchange = spy
            client.push(items=[[1, 2.0]])
            assert client.query("total_weight")["estimate"] == 2.0
    (push_body, push_type, _), (_, query_type, vary) = seen
    assert push_body.startswith(b"RPW1")
    assert push_type == query_type == WIRE_TYPE
    assert vary == "Accept"


# --------------------------------------------------------------------------
# Concurrency pin: a slow query must not stall the ingest path.
# --------------------------------------------------------------------------
def _slow_query(tracker, delay: float):
    # The one read path under both ``query`` and the gateway's query route.
    real_query = tracker._labelled_query

    def labelled_query(query, partial):
        time.sleep(delay)
        return real_query(query, partial)

    tracker._labelled_query = labelled_query


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

    def test_unknown_methods_share_one_metric_label(self, served_cluster):
        """``repro_gateway_requests_total``'s ``method`` label is bounded by
        the route table: a client inventing methods adds no series."""
        from repro.obs import REGISTRY

        requests = REGISTRY.counter("repro_gateway_requests_total",
                                    labels=("route", "method", "status"))
        hostile = [f"M{index:04d}" for index in range(50)]
        enabled = REGISTRY.enabled
        REGISTRY.enable()
        try:
            before = requests.value(route="/v1/stats", method="other",
                                    status=405)
            with Gateway(served_cluster) as gateway:
                host, port = gateway.address
                for method in hostile:
                    conn = http.client.HTTPConnection(host, port, timeout=10)
                    try:
                        conn.request(method, "/v1/stats")
                        assert conn.getresponse().status == 405
                    finally:
                        conn.close()
            methods = {labels[1] for labels, _ in
                       next(family["series"] for family in
                            REGISTRY.snapshot()["metrics"]
                            if family["name"] == requests.name)}
            assert requests.value(route="/v1/stats", method="other",
                                  status=405) == before + len(hostile)
        finally:
            REGISTRY.enable() if enabled else REGISTRY.disable()
        assert methods <= {"GET", "POST", "other"}

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_bad_requests_400(self, served_cluster, encoding):
        with Gateway(served_cluster) as gateway:
            with _client(gateway, encoding) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.query("frequency")  # no element
                assert excinfo.value.status == 400
                with pytest.raises(GatewayError) as excinfo:
                    client.query("frequency", body={"element": [[1]]})
                assert excinfo.value.status == 400
                with pytest.raises(GatewayError) as excinfo:
                    client.request("POST", "/v1/push", {})  # nothing to push
                assert excinfo.value.status == 400
                for bad in (
                        {"items": [[1, 1.0]], "site_ids": [0, 1]},  # length
                        {"items": [[1, 1.0]], "site_ids": [7]},     # range
                        {"items": [[1, 1.0]], "site_ids": [0.5]},   # type
                        {"items": [[1, float("nan")]]},             # finite
                        {"items": [[1, -2.0]]},                     # sign
                        {"items": [[1, 1.0, 3]]},                   # pairs
                        {"items": [[[1], 1.0]]},                    # element
                        {"items": {"1": 1.0}}):                     # list
                    with pytest.raises(GatewayError) as excinfo:
                        client.request("POST", "/v1/push", bad)
                    assert excinfo.value.status == 400, bad
                assert client.stats()["items_processed"] == 0
            # A malformed body straight over the socket.
            content_type = WIRE_TYPE if encoding == "wire" else JSON_TYPE
            status, document = _post_raw(gateway, "/v1/push",
                                         b"{not json, not a frame}",
                                         content_type)
            assert status == 400
            assert ("not a wire frame" if encoding == "wire" else
                    "not valid JSON") in document["error"]["message"]

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_malformed_push_is_the_pushers_400(self, encoding):
        """Wrong-width, ragged, non-finite rows and out-of-range sites fail
        the push that sent them; the next (unrelated) request is served
        normally."""
        with repro.ShardedTracker.create(
                "matrix/P2", shards=2, backend="process", num_sites=3,
                dimension=3, epsilon=0.1) as cluster, \
                Gateway(cluster) as gateway, \
                _client(gateway, encoding) as client:
            assert client.push(rows=[[1.0, 0.0, 0.0]]) == {"accepted": 1}
            for bad in ({"rows": [[1.0, 2.0, 3.0, 4.0]]},
                        {"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                         "site_ids": [0, 99]},
                        {"rows": [[1.0, float("inf"), 0.0]]},
                        {"rows": [1.0, 0.0, 0.0]}):
                with pytest.raises(GatewayError) as excinfo:
                    client.push(**bad)
                assert excinfo.value.status == 400
                assert client.query("frobenius")["estimate"] == 1.0
            with pytest.raises(GatewayError) as excinfo:
                client.request("POST", "/v1/push",
                               {"rows": [[1.0, 0.0], [0.0]]})
            assert excinfo.value.status == 400
            assert client.stats()["items_processed"] == 1

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_bool_site_ids_are_refused_as_push_batch_refuses_them(
            self, served_cluster, encoding):
        """NumPy reads ``[true, 0]`` as the sites ``[1, 0]``; the gateway
        refuses it by ``check_site_ids``' rule, as the facades do."""
        items = [[1, 1.0], [2, 1.0]]
        with pytest.raises(TypeError, match="site_ids must be integers"):
            served_cluster.push_batch(items, site_ids=[True, 0])
        with Gateway(served_cluster) as gateway, \
                _client(gateway, encoding) as client:
            for sites in ([True, 0], [0, False], [True, False]):
                with pytest.raises(GatewayError) as excinfo:
                    client.request("POST", "/v1/push",
                                   {"items": items, "site_ids": sites})
                assert excinfo.value.status == 400, sites
                assert "site_ids must be integers, got a bool" in \
                    excinfo.value.message, sites
            assert client.stats()["items_processed"] == 0

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_oversized_body_413(self, served_cluster, encoding):
        with Gateway(served_cluster, max_body_bytes=1024) as gateway:
            with _client(gateway, encoding) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.push(items=[[index, 1.0] for index in range(500)])
                assert excinfo.value.status == 413

    def test_unsupported_body_type_415(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            status, document = _post_raw(gateway, "/v1/push", b"items=1",
                                         "application/x-www-form-urlencoded")
        assert status == 415
        assert "application/x-www-form-urlencoded" in \
            document["error"]["message"]

    def test_deadline_504(self, served_cluster):
        _slow_query(served_cluster, delay=1.5)
        with Gateway(served_cluster, request_timeout=0.2) as gateway:
            with GatewayClient(gateway.url) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.query("total_weight")
                assert excinfo.value.status == 504
                assert "deadline" in excinfo.value.message

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_partial_passthrough(self, served_cluster, encoding):
        real_query = served_cluster._labelled_query
        seen = []

        def labelled_query(query, partial):
            seen.append(partial)
            answer, label = real_query(query, partial)
            if partial:
                answer = dataclasses.replace(answer, missing_shards=(1,))
            return answer, label

        served_cluster._labelled_query = labelled_query
        with Gateway(served_cluster) as gateway:
            with _client(gateway, encoding) as client:
                healthy = client.query("total_weight")
                degraded = client.query("total_weight", partial=True)
                degraded_post = client.query("heavy_hitters",
                                             body={"phi": 0.1}, partial=True)
        assert seen == [False, True, True]
        assert degraded_post["partial"] is True
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


class TestClientTransport:
    """``GatewayClient``'s own HTTP/1.1 exchange: one send per request, TLS
    through ``ssl_context``, and a ``Connection: close`` reply honoured."""

    @pytest.mark.skipif(shutil.which("openssl") is None,
                        reason="openssl binary not available")
    def test_https_push_query_and_304(self, certs, served_cluster):
        server = server_ssl_context(str(certs / "server.pem"),
                                    str(certs / "server.key"))
        with Gateway(served_cluster, ssl_context=server) as gateway:
            assert gateway.url.startswith("https://")
            with GatewayClient(gateway.url, ssl_context=client_ssl_context(
                    str(certs / "ca.pem"))) as client:
                assert client.push(items=[[1, 2.0], [2, 3.0]]) == \
                    {"accepted": 2}
                assert client.push(items=[[1, 1.0]]) == {"accepted": 1}
                first = client.query("total_weight")
                assert client.query("total_weight") == first
                assert client.not_modified == 1
                assert first["estimate"] == pytest.approx(6.0)
                assert client.stats()["items_processed"] == 3
            # A client that does not trust the gateway's CA never connects.
            with GatewayClient(gateway.url) as stranger:
                with pytest.raises(ssl.SSLError):
                    stranger.stats()

    def test_one_send_call_per_request(self, served_cluster, monkeypatch):
        calls = []
        me = threading.get_ident()
        for name in ("send", "sendall", "sendmsg"):
            real = getattr(socket.socket, name)

            def counted(sock, *args, _real=real, _name=name):
                if threading.get_ident() == me:
                    calls.append(_name)
                return _real(sock, *args)

            monkeypatch.setattr(socket.socket, name, counted)
        with Gateway(served_cluster) as gateway:
            calls.clear()  # the loop's own wake-up sends, if any
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 1.0]])
                client.push(items=[[index, 1.0] for index in range(300)])
                client.query("total_weight")
                client.query("total_weight")  # the 304 revalidation
                client.stats()
            assert calls == ["sendall"] * 5
            assert client.not_modified == 1

    def test_connection_close_413_then_a_fresh_connection(
            self, served_cluster):
        with Gateway(served_cluster, max_body_bytes=256) as gateway:
            with GatewayClient(gateway.url) as client:
                connects = []
                connect = client._connect

                def counted_connect():
                    connects.append(1)
                    connect()

                client._connect = counted_connect
                assert client.push(items=[[1, 1.0]]) == {"accepted": 1}
                with pytest.raises(GatewayError) as excinfo:
                    client.push(items=[[index, 1.0] for index in range(100)])
                assert excinfo.value.status == 413
                assert client._sock is None  # the gateway hung up; so did we
                assert client.push(items=[[2, 1.0]]) == {"accepted": 1}
                assert client.stats()["items_processed"] == 2
        assert len(connects) == 2  # the first request, then after the 413


# --------------------------------------------------------------------------
# Conditional GET: ETags, 304 revalidation, the client's document cache.
# --------------------------------------------------------------------------
class TestConditionalGet:
    @staticmethod
    def _raw_get(gateway, path, headers=None, encoding="json"):
        """GET with no ``Accept`` (JSON) or ``Accept`` wire; returns
        ``(status, lower-cased headers, body)`` with the body decoded by its
        ``Content-Type`` (``b""`` when empty)."""
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        headers = dict(headers or {})
        if encoding == "wire":
            headers["Accept"] = WIRE_TYPE
        try:
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            data = response.read()
            headers = {name.lower(): value
                       for name, value in response.getheaders()}
            if data:
                assert headers["content-type"] == (
                    WIRE_TYPE if encoding == "wire" else JSON_TYPE)
                return (response.status, headers,
                        decode_document(data, headers["content-type"]))
            return response.status, headers, data
        finally:
            conn.close()

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_etag_304_round_trip(self, served_cluster, encoding):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 5.0], [2, 3.0]])

            status, headers, body = self._raw_get(
                gateway, "/v1/query/total_weight", encoding=encoding)
            assert status == 200
            assert headers["vary"] == "Accept"
            etag = headers["etag"]
            # The mandated shape: "<spec>-<hash>".
            assert etag.startswith('"hh/P2-')
            assert body["estimate"] == pytest.approx(8.0)

            status, headers, body = self._raw_get(
                gateway, "/v1/query/total_weight",
                {"If-None-Match": etag}, encoding)
            assert status == 304
            assert body == b""
            assert headers["etag"] == etag
            assert headers["vary"] == "Accept"

            # A wildcard or a list containing the ETag also revalidates.
            status, _headers, _body = self._raw_get(
                gateway, "/v1/query/total_weight",
                {"If-None-Match": f'"unrelated", {etag}'}, encoding)
            assert status == 304
            status, _headers, _body = self._raw_get(
                gateway, "/v1/query/total_weight", {"If-None-Match": "*"},
                encoding)
            assert status == 304

    def test_each_representation_has_its_own_validator(self, served_cluster):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 5.0], [2, 3.0]])
            tags = {encoding: self._raw_get(
                gateway, "/v1/query/total_weight",
                encoding=encoding)[1]["etag"] for encoding in ENCODINGS}
            assert tags["json"] != tags["wire"]
            # Revalidating one representation's validator under the other
            # representation sends the full document, never a 304.
            for encoding, other in (("json", "wire"), ("wire", "json")):
                status, headers, body = self._raw_get(
                    gateway, "/v1/query/total_weight",
                    {"If-None-Match": tags[other]}, encoding)
                assert status == 200
                assert headers["etag"] == tags[encoding]
                assert body["estimate"] == pytest.approx(8.0)

    def test_json_fallback_is_the_answers_to_dict(self, served_cluster):
        """No ``Accept`` header: the body is ``json.dumps`` of ``to_dict()``
        byte for byte, as before wire negotiation existed."""
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 5.0], [2, 3.0], [1, 1.0]])
            host, port = gateway.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/v1/query/heavy_hitters?phi=0.1")
            body = conn.getresponse().read()
            conn.close()
        expected = served_cluster.query(HeavyHitters(phi=0.1)).to_dict()
        expected["partial"] = False
        assert body == json.dumps(expected, separators=(",", ":")).encode()

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_push_moves_the_etag(self, served_cluster, encoding):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 5.0]])
                status, headers, _body = self._raw_get(
                    gateway, "/v1/query/total_weight", encoding=encoding)
                stale_etag = headers["etag"]
                client.push(items=[[2, 3.0]])
                status, headers, body = self._raw_get(
                    gateway, "/v1/query/total_weight",
                    {"If-None-Match": stale_etag}, encoding)
                # The item counts moved, so the validator no longer matches:
                # the full fresh answer comes back, never a stale 304.
                assert status == 200
                assert headers["etag"] != stale_etag
                assert body["estimate"] == pytest.approx(8.0)

    def test_validators_never_cross_gateways(self):
        """Two sessions at equal item counts hold different data: a
        validator one gateway issued is never a 304 at another (nor at a
        restarted one)."""
        served = []
        for element in ("cat", "dog"):
            tracker = repro.Tracker.create("hh/P2", num_sites=5,
                                           epsilon=0.1)
            for _ in range(3):
                tracker.push(0, (element, 1.0))
            served.append(tracker)
        with Gateway(served[0]) as first:
            _status, headers, _body = self._raw_get(
                first, "/v1/query/heavy_hitters?phi=0.5")
            etag = headers["etag"]
        with Gateway(served[1]) as second:
            status, headers, body = self._raw_get(
                second, "/v1/query/heavy_hitters?phi=0.5",
                {"If-None-Match": etag})
        assert status == 200
        assert headers["etag"] != etag
        assert [hitter["element"] for hitter in body["estimate"]] == ["dog"]

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_partial_answers_carry_no_etag(self, served_cluster, encoding):
        with Gateway(served_cluster) as gateway:
            with GatewayClient(gateway.url) as client:
                client.push(items=[[1, 1.0]])
            status, headers, body = self._raw_get(
                gateway, "/v1/query/total_weight?partial=true",
                encoding=encoding)
            assert status == 200
            assert "etag" not in headers
            assert body["partial"] is False

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
# Dispatch order: a one-item push that finds the writer idle is applied on
# the event loop; every other push queues behind the writer, in arrival
# order.
# --------------------------------------------------------------------------
def _gate_stats(tracker):
    """Hold the writer thread inside ``/v1/stats`` until the returned
    ``release`` is set; ``entered`` is set once the writer is held."""
    real_stats = tracker.stats
    entered, release = threading.Event(), threading.Event()

    def gated_stats():
        entered.set()
        release.wait(timeout=30.0)
        return real_stats()

    tracker.stats = gated_stats
    return entered, release


def _record_dispatch_threads(gateway):
    """Names of the threads ``_do_push`` runs on, one per dispatch."""
    threads = []
    do_push = gateway._do_push

    def recorded(batch, site_ids):
        threads.append(threading.current_thread().name)
        return do_push(batch, site_ids)

    gateway._do_push = recorded
    return threads


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


def _push_in_thread(gateway, replies, key, **push):
    """One push on its own connection; its reply (or error) lands in
    ``replies[key]``."""
    def run():
        try:
            with GatewayClient(gateway.url) as client:
                replies[key] = client.push(**push)
        except GatewayError as exc:
            replies[key] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread


class TestDispatchOrder:
    DIMENSION = 6
    PARAMS = {"num_sites": 4, "dimension": 6, "epsilon": 0.2}

    def test_inline_and_queued_pushes_equal_a_serial_oracle(self):
        rng = np.random.default_rng(2016)

        def pushes(sizes):
            return [(rng.normal(size=(size, self.DIMENSION)),
                     rng.integers(0, 4, size=size)) for size in sizes]

        before, during, after = pushes([1, 1, 1]), pushes([1, 3, 1, 2]), \
            pushes([1, 1, 1])
        served, oracle = (repro.ShardedTracker.create(
            "matrix/P2", shards=2, backend="serial", **self.PARAMS)
            for _ in range(2))
        try:
            with Gateway(served) as gateway:
                threads = _record_dispatch_threads(gateway)
                with GatewayClient(gateway.url) as client:
                    for rows, sites in before:
                        assert client.push(rows=rows, site_ids=sites) == \
                            {"accepted": 1}
                    entered, release = _gate_stats(served)
                    stats_thread = threading.Thread(target=client.stats)
                    stats_thread.start()
                    assert entered.wait(timeout=10.0)
                    replies, pushers = {}, []
                    for index, (rows, sites) in enumerate(during):
                        pushers.append(_push_in_thread(
                            gateway, replies, index, rows=rows,
                            site_ids=sites))
                        # Arrival order is the order they queue in.
                        _wait_until(lambda: len(gateway._push_queue)
                                    == index + 1)
                    release.set()
                    for thread in pushers + [stats_thread]:
                        thread.join(timeout=30.0)
                        assert not thread.is_alive()
                    # A stats round trip runs after every queued drain job,
                    # so the writer is idle again when it returns.
                    client.stats()
                    for rows, sites in after:
                        assert client.push(rows=rows, site_ids=sites) == \
                            {"accepted": 1}
                    served_answers = [client.query(kind)
                                      for kind in ("covariance", "sketch")]
            assert replies == {index: {"accepted": len(rows)}
                               for index, (rows, _) in enumerate(during)}
            loop, writer = "repro-gateway", threads[3]
            assert writer.startswith("repro-gateway-writer")
            # The four queued pushes were one coalesced dispatch.
            assert threads == [loop] * 3 + [writer] + [loop] * 3

            for rows, sites in before:
                oracle.push_batch(rows, site_ids=sites)
            oracle.push_batch(np.concatenate([rows for rows, _ in during]),
                              site_ids=np.concatenate(
                                  [sites for _, sites in during]))
            for rows, sites in after:
                oracle.push_batch(rows, site_ids=sites)

            def frame(tracker):
                return tracker_frame(tracker, compress=False)

            for shard in range(2):
                assert served._backend.call(shard, frame) == \
                    oracle._backend.call(shard, frame)
            for document, query in zip(served_answers,
                                       (Covariance(), SketchMatrix())):
                document.pop("partial")
                assert document == _jsonify(oracle.query(query).to_dict())
        finally:
            served.close()
            oracle.close()

    def test_a_failed_push_is_the_same_400_inline_and_queued(self):
        served = repro.ShardedTracker.create("hh/P2", shards=2,
                                             backend="serial", num_sites=5,
                                             epsilon=0.1)
        push_batch = served.push_batch

        def poisoned(batch, site_ids=None):
            if any(element == "poison" for element, _ in batch):
                raise ValueError("a poisoned batch")
            return push_batch(batch, site_ids=site_ids)

        served.push_batch = poisoned
        try:
            with Gateway(served) as gateway:
                threads = _record_dispatch_threads(gateway)
                with GatewayClient(gateway.url) as client:
                    with pytest.raises(GatewayError) as inline:
                        client.push(items=[["poison", 1.0]])
                    entered, release = _gate_stats(served)
                    stats_thread = threading.Thread(target=client.stats)
                    stats_thread.start()
                    assert entered.wait(timeout=10.0)
                    replies = {}
                    pusher = _push_in_thread(gateway, replies, "queued",
                                             items=[["poison", 1.0]])
                    _wait_until(lambda: len(gateway._push_queue) == 1)
                    release.set()
                    for thread in (pusher, stats_thread):
                        thread.join(timeout=30.0)
                        assert not thread.is_alive()
                    assert client.stats()["items_processed"] == 0
            queued = replies["queued"]
            assert threads[0] == "repro-gateway"
            assert threads[1].startswith("repro-gateway-writer")
            assert (inline.value.status, inline.value.message) == \
                (queued.status, queued.message) == \
                (400, "ValueError: a poisoned batch")
        finally:
            served.close()

    def test_one_writer_at_a_time_under_contention(self):
        """More clients than cores, a short switch interval: inline and
        queued dispatches never overlap on the tracker, every ack is
        exact, and the writer's job counts balance."""
        served = repro.ShardedTracker.create("hh/P2", shards=2,
                                             backend="serial", num_sites=5,
                                             epsilon=0.1)
        lock, active, overlaps = threading.Lock(), [0], []

        def exclusive(fn):
            def call(*args, **kwargs):
                with lock:
                    active[0] += 1
                    if active[0] > 1:
                        overlaps.append(fn.__name__)
                try:
                    time.sleep(0.0002)  # widen the window an overlap needs
                    return fn(*args, **kwargs)
                finally:
                    with lock:
                        active[0] -= 1
            return call

        for name in ("push_batch", "stats", "_labelled_query"):
            setattr(served, name, exclusive(getattr(served, name)))
        clients, requests = 6, 25
        failures = []

        def client_loop(worker):
            try:
                with GatewayClient(gateway.url) as client:
                    for index in range(requests):
                        size = 3 if index % 4 == 3 else 1
                        reply = client.push(items=[[worker, 1.0]] * size)
                        assert reply == {"accepted": size}
                        if index % 10 == 9:
                            client.stats()
                            client.query("total_weight")
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Gateway(served) as gateway:
                workers = [threading.Thread(target=client_loop, args=(worker,))
                           for worker in range(clients)]
                for thread in workers:
                    thread.start()
                for thread in workers:
                    thread.join(timeout=120.0)
                    assert not thread.is_alive()
                with GatewayClient(gateway.url) as client:
                    stats = client.stats()
        finally:
            sys.setswitchinterval(interval)
            served.close()
        if failures:
            raise failures[0]
        assert overlaps == []
        per_client = sum(3 if index % 4 == 3 else 1
                         for index in range(requests))
        assert stats["items_processed"] == clients * per_client
        assert gateway._writer_submitted == gateway._writer_finished


# --------------------------------------------------------------------------
# Degraded /v1/stats: missing shards are a field, not a 500.
# --------------------------------------------------------------------------
class _DeadShardBackend:
    """A backend whose shard 1 is unreachable for partial fan-outs."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def call_all_partial(self, fn, *args):
        results, errors = self._inner.call_all_partial(fn, *args)
        results[1] = None
        errors[1] = BackendError("shard 1 lost")
        return results, errors


def test_stats_route_reports_missing_shards_instead_of_500():
    cluster = repro.ShardedTracker.create("hh/P2", shards=2, backend="thread",
                                          num_sites=5, epsilon=0.1)
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


@pytest.mark.parametrize("session", ["tracker", "process", "missing_shard"])
def test_stats_document_is_the_stats_dataclass_as_json(session):
    """``/v1/stats`` renders ``_jsonify(stats)`` straight off the dataclass:
    the same JSON, key order included, as the ``dataclasses.asdict`` dump
    it replaced."""
    items = [(1, 1.0), (2, 2.0), (1, 3.0), (4, 4.0)]
    if session == "tracker":
        tracker = repro.Tracker.create("hh/P2", num_sites=5, epsilon=0.1)
        tracker.push_batch([0, 1, 2, 3], items)
    else:
        tracker = repro.ShardedTracker.create(
            "hh/P2", shards=2, backend="process", num_sites=5, epsilon=0.1)
        tracker.push_batch(items, site_ids=[0, 1, 2, 3])
    try:
        if session == "missing_shard":
            tracker._backend = _DeadShardBackend(tracker._backend)
        gateway = Gateway(tracker)
        try:
            document = gateway._do_stats()
        finally:
            gateway.stop()
        old = _jsonify(dataclasses.asdict(tracker.stats()))
        assert json.dumps(document) == json.dumps(old)
        if session == "missing_shard":
            assert document["missing_shards"] == [1]
            assert document["per_shard"][1] is None
    finally:
        if session != "tracker":
            tracker._backend = getattr(tracker._backend, "_inner",
                                       tracker._backend)
            tracker.close()


# --------------------------------------------------------------------------
# The public port's codec: wire bodies are plain data, and a malformed frame
# is the sender's 4xx naming the cause — never a 500, never a poisoned shard.
# --------------------------------------------------------------------------
_FRAME_HEADER = struct.Struct("<4sHHH")  # magic, version, flags, kind length

#: Every route that decodes a request body.
_BODY_ROUTES = (["/v1/push", "/v1/checkpoint", "/v1/admin/move_shard"]
                + [f"/v1/query/{kind}" for kind in sorted(QUERY_KINDS)])


def _frame(body: bytes, *, kind: str = DOCUMENT_KIND, version: int = 1,
           flags: int = 0, body_length=None) -> bytes:
    """A frame envelope around raw body bytes, CRC and all (the layout of
    ``repro.wire.frames``), so hostile bodies reach the decoder itself."""
    kind_bytes = kind.encode()
    return b"".join((
        _FRAME_HEADER.pack(b"RPW1", version, flags, len(kind_bytes)),
        kind_bytes,
        struct.pack("<Q", len(body) if body_length is None else body_length),
        body,
        struct.pack("<I", zlib.crc32(body)),
    ))


def _body_of(frame: bytes) -> bytes:
    kind_length = _FRAME_HEADER.unpack_from(frame)[3]
    return frame[_FRAME_HEADER.size + kind_length + 8:-4]


def _flip(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def _not_plain_values():
    """Tag name -> a value written with that tag: by the general codec, or
    byte by byte for the retired tags that named classes and objects."""
    return {
        "OBJECT": Obj("repro.api.queries:TotalWeight", {}),
        "CLASS": Cls("repro.api.queries:TotalWeight"),
        "ENUM": Member("repro.streaming.network:MessageKind", "scalar"),
        "EXCEPTION": Error("os:system", ("true",)),
        "NPGENERATOR": Generator({"bit_generator": "PCG64"}),
        "OBJARRAY": np.array([1, "a"], dtype=object),
        "DTYPE": Raw(b"\x19\x03<f8"),
        "NPTYPE": NpType("<f8"),
        "REF": Ref(0),
        "NUMDICT": NumDict([7], [1.0]),
        "COMPLEX": 1j,
        "BYTEARRAY": Raw(b"\x09\x01x"),
        "SET": Raw(b"\x0c\x00"),
        "FROZENSET": frozenset({1}),
        "NPSCALAR": np.float64(1.0),
    }


class TestPlainDataOnly:
    def test_every_route_refuses_every_name_resolving_tag(
            self, served_cluster):
        modules = set(sys.modules)
        frames = {name: _frame(old_value({"items": [[1, value]]}))
                  for name, value in _not_plain_values().items()}
        frames["SHMARRAY"] = pack_frame(
            DOCUMENT_KIND, {"rows": np.zeros((1, 3))},
            array_sink=lambda array: "segment")
        with Gateway(served_cluster) as gateway:
            for route in _BODY_ROUTES:
                for name, frame in frames.items():
                    status, document = _post_raw(gateway, route, frame)
                    assert status == 400, (route, name)
                    assert f"wire tag {name} " in \
                        document["error"]["message"], (route, name)
            with GatewayClient(gateway.url) as client:
                assert client.stats()["items_processed"] == 0
        # Serving HTTP may load codecs; nothing named in a body loads.
        assert not {name for name in set(sys.modules) - modules
                    if name.startswith("repro")}

    def test_frames_of_another_kind_or_deflated_are_refused(
            self, served_cluster):
        body = _body_of(pack_frame(DOCUMENT_KIND, {"items": [[1, 1.0]]}))
        with Gateway(served_cluster) as gateway:
            status, document = _post_raw(
                gateway, "/v1/push", _frame(body, kind="repro/worker-command"))
            assert status == 400
            assert "expected a 'repro/gateway-document' frame" in \
                document["error"]["message"]
            status, document = _post_raw(
                gateway, "/v1/push",
                _frame(zlib.compress(body), version=2, flags=1))
            assert status == 400
            assert "deflated" in document["error"]["message"]
            # The same body, plainly framed, is accepted.
            status, document = _post_raw(gateway, "/v1/push", _frame(body))
            assert (status, document) == (200, {"accepted": 1})


_FUZZ_DOCUMENTS = {
    "/v1/push": {"rows": np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]]),
                 "site_ids": np.array([0, 2])},
    "/v1/query/norms": {"directions": np.array([1.0, 0.0, 0.0])},
}


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        out.append((value & 0x7F) | (0x80 if value >> 7 else 0))
        value >>= 7
        if not value:
            return bytes(out)


def _rows_body(array_section: bytes) -> bytes:
    """``{"rows": <array>}`` with a hand-written array section."""
    return b"\x0e\x01" + b"\x07\x04rows" + b"\x0f" + array_section


def _deflate_bomb(inflated_bytes: int) -> bytes:
    """A deflate stream of ``inflated_bytes`` zeros, built 1 MiB at a time."""
    squeezer = zlib.compressobj(9)
    block = bytes(1 << 20)
    return b"".join([squeezer.compress(block)
                     for _ in range(inflated_bytes >> 20)]
                    + [squeezer.flush()])


#: (label, frame builder, a phrase the 4xx message must contain).
_LENGTH_BOMBS = [
    ("body length header", lambda: _frame(b"\x00", body_length=1 << 62),
     "length mismatch"),
    ("varint overflow", lambda: _frame(b"\x0a" + b"\xff" * 11),
     "varint overflow"),
    ("list count", lambda: _frame(b"\x0a" + _varint(1 << 60)),
     "truncated payload"),
    ("2**60 elements", lambda: _frame(_rows_body(
        b"\x03<f8" + _varint(2) + _varint(1 << 30) + _varint(1 << 30)
        + _varint(8 << 60))), "promises"),
    ("array section length", lambda: _frame(_rows_body(
        b"\x03<f8" + _varint(2) + _varint(1) + _varint(3)
        + _varint(1 << 40) + bytes(24))), "does not match"),
    ("forbidden dtype", lambda: _frame(_rows_body(
        b"\x03<f4" + _varint(2) + _varint(1) + _varint(3) + _varint(12)
        + bytes(12))), "not plain data"),
    ("forbidden tag", lambda: _frame(old_value(
        {"rows": Obj("os:system", {"command": "true"})})), "wire tag OBJECT"),
    ("huge integer", lambda: _frame(b"\x04" + _varint(4096) + b"\x01" * 4096),
     "limit"),
    ("deflate bomb", lambda: _frame(_deflate_bomb(256 << 20), version=2,
                                    flags=1), "deflated"),
    ("array section", lambda: _frame(
        struct.pack("<Q", 1) + b"\x00" + bytes(64), version=2,
        flags=2), "sectioned"),
    ("numeric dict tag", lambda: _frame(old_value(
        {"rows": NumDict([7], [1.0])})), "wire tag NUMDICT"),
    ("not a frame", lambda: b"RPW2" + bytes(32), "not a wire frame"),
]


@pytest.fixture(scope="module")
def fuzz_gateway():
    """One process-backend cluster behind a gateway, with a ledger of the
    items it acknowledged: fuzzing must leave every shard serving."""
    cluster = repro.ShardedTracker.create("matrix/P2", shards=2,
                                          backend="process", num_sites=3,
                                          dimension=3, epsilon=0.1)
    gateway = Gateway(cluster).start()
    client = GatewayClient(gateway.url)
    ledger = {"accepted": 0}
    try:
        # The unmutated documents are served, so every 4xx below is the
        # mutation's doing, not the representation's.
        for path, document in _FUZZ_DOCUMENTS.items():
            status, reply = _post_raw(
                gateway, path, pack_frame(DOCUMENT_KIND, document, plain=True))
            assert status == 200, reply
            ledger["accepted"] += reply.get("accepted", 0)
        yield gateway, client, ledger
    finally:
        client.close()
        gateway.stop()
        cluster.close()


def _hit(fuzz_gateway, path, body):
    """Send one hostile body; assert the contract; prove no shard poisoned."""
    gateway, client, ledger = fuzz_gateway
    status, document = _post_raw(gateway, path, body)
    assert status < 500, document
    if status == 200:
        ledger["accepted"] += document.get("accepted", 0)
    else:
        assert 400 <= status < 500
        assert document["error"]["message"]
    assert client.push(rows=[[0.0, 1.0, 0.0]], site_ids=[1]) == \
        {"accepted": 1}
    ledger["accepted"] += 1
    assert client.stats()["items_processed"] == ledger["accepted"]
    return status, document


class TestWireFuzz:
    @pytest.mark.parametrize("path", sorted(_FUZZ_DOCUMENTS))
    @pytest.mark.parametrize("label, build, phrase", _LENGTH_BOMBS,
                             ids=[bomb[0] for bomb in _LENGTH_BOMBS])
    def test_length_bombs_and_forbidden_input(self, fuzz_gateway, path,
                                              label, build, phrase):
        status, document = _hit(fuzz_gateway, path, build())
        assert status == 400, label
        assert phrase in document["error"]["message"], label

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_truncated_and_bit_flipped_frames(self, fuzz_gateway, data):
        path = data.draw(st.sampled_from(sorted(_FUZZ_DOCUMENTS)))
        frame = pack_frame(DOCUMENT_KIND, _FUZZ_DOCUMENTS[path], plain=True)
        mutation = data.draw(st.sampled_from(
            ["truncate", "flip", "flip body", "truncate body"]))
        body = _body_of(frame)
        if mutation == "truncate":
            hostile = frame[:data.draw(st.integers(0, len(frame) - 1))]
        elif mutation == "flip":  # the envelope or the CRC catches these
            hostile = _flip(frame, data.draw(
                st.integers(0, len(frame) * 8 - 1)))
        elif mutation == "flip body":  # CRC recomputed: the decoder's turn
            hostile = _frame(_flip(body, data.draw(
                st.integers(0, len(body) * 8 - 1))))
        else:
            hostile = _frame(body[:data.draw(st.integers(0, len(body) - 1))])
        _hit(fuzz_gateway, path, hostile)

    def test_body_limit_counts_bytes_on_the_wire(self, fuzz_gateway):
        gateway, client, ledger = fuzz_gateway
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/push")
            conn.putheader("Content-Type", WIRE_TYPE)
            conn.putheader("Content-Length", str(1 << 60))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert b"exceeds" in response.read()
        finally:
            conn.close()
        assert client.push(rows=[[1.0, 0.0, 0.0]]) == {"accepted": 1}
        ledger["accepted"] += 1
        assert client.stats()["items_processed"] == ledger["accepted"]
