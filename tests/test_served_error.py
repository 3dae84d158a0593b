"""The served ``err`` comes from protocol state, and no protocol keeps the truth.

In the paper's model no party holds ``A``: the sites see their own rows and
the coordinator holds ``B``.  matrix/P2's one-sided guarantee (Theorem 4)
rests on an exact account of the missing mass — ``AᵀA − BᵀB`` is the sum of
the sites' unsent residual Grams, and ``‖A‖²_F`` is ``F̂`` plus the sites'
unsent norms — so ``ApproximationError`` serves the paper's ``err`` from that
state.  These tests hold the stream they fed and check the served value
against the truth computed from it: per item and in chunks, on a
``Tracker``, on 2-shard ``serial`` and ``process`` clusters, and through the
gateway in both encodings.  Every protocol whose state proves no such
account answers ``estimate is None``, and one such shard voids a merge.

Checkpoints written while protocols still kept exact-truth accumulators
load without them, and a re-save writes none.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import ApproximationError, SketchMatrix
from repro.data.synthetic_matrix import make_msd_like, make_pamap_like
from repro.gateway import Gateway
from repro.utils.linalg import covariance_error
from repro.api.legacy import read_legacy
from repro.wire import unpack_frame

from test_api_state_roundtrip import MATRIX_SPECS, _params
from test_gateway import ENCODINGS, _client

FIXTURES = Path(__file__).parent / "fixtures"

#: Row counts of the instalments a stream arrives in; a station follows each.
INSTALMENTS = (400, 37, 500, 1, 562, 1_500)
STATIONS = np.cumsum(INSTALMENTS)
NUM_SITES = 8

#: The two stand-ins and the ε each runs at.
DATASETS = {
    "pamap": (lambda: make_pamap_like(num_rows=int(STATIONS[-1]), seed=2014), 0.1),
    "msd": (lambda: make_msd_like(num_rows=int(STATIONS[-1]), seed=2015), 0.05),
}


def _rows(dataset: str) -> np.ndarray:
    factory, _ = DATASETS[dataset]
    return np.ascontiguousarray(factory().rows, dtype=np.float64)


def _assert_served_is_truth(answer, rows: np.ndarray, sketch: np.ndarray) -> None:
    truth = covariance_error(rows, sketch)
    assert truth > 1e-3  # a station where the residuals hold real mass
    assert answer.estimate == pytest.approx(truth, rel=1e-12, abs=0.0)
    assert answer.estimate <= answer.error_bound


def _stations(session, rows: np.ndarray):
    """Feed ``rows`` in :data:`INSTALMENTS`; yield the prefix fed at each stop."""
    start = 0
    for stop in STATIONS:
        session.run(rows[start:stop])
        start = int(stop)
        yield rows[:start]


# ------------------------------------------------------------ served error
@pytest.mark.parametrize("chunk_size", [None, 64, 4096],
                         ids=["item", "chunk64", "chunk4096"])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_p2_tracker_serves_the_streams_error(dataset, chunk_size):
    rows = _rows(dataset)
    tracker = repro.Tracker.create(
        "matrix/P2", num_sites=NUM_SITES, dimension=rows.shape[1],
        epsilon=DATASETS[dataset][1], chunk_size=chunk_size)
    for fed in _stations(tracker, rows):
        answer = tracker.query(ApproximationError())
        _assert_served_is_truth(answer, fed, tracker.protocol.sketch_matrix())
        # The served ‖A‖²_F is exact, so the bound is ε·F̂ over the truth.
        f2 = float(np.einsum("ij,ij->", fed, fed))
        assert answer.error_bound == pytest.approx(
            DATASETS[dataset][1] * tracker.protocol.estimated_squared_frobenius() / f2,
            rel=1e-12)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_p2_two_shard_cluster_serves_the_streams_error(backend):
    rows = _rows("pamap")
    with repro.ShardedTracker.create(
            "matrix/P2", shards=2, backend=backend, num_sites=NUM_SITES,
            dimension=rows.shape[1], epsilon=DATASETS["pamap"][1]) as cluster:
        for fed in _stations(cluster, rows):
            answer = cluster.query(ApproximationError())
            sketch = cluster.query(SketchMatrix()).estimate
            _assert_served_is_truth(answer, fed, sketch)


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_p2_gateway_serves_the_streams_error(encoding):
    rows = _rows("pamap")[:2_000]
    with repro.ShardedTracker.create(
            "matrix/P2", shards=2, backend="thread", num_sites=NUM_SITES,
            dimension=rows.shape[1], epsilon=DATASETS["pamap"][1]) as cluster, \
            Gateway(cluster) as gateway, _client(gateway, encoding) as client:
        for start, stop in ((0, 700), (700, 2_000)):
            assert client.push(rows=rows[start:stop]) == {"accepted": stop - start}
            document = client.query("error")
            assert document.pop("partial") is False
            sketch = np.asarray(client.query("sketch")["estimate"], dtype=np.float64)
            truth = covariance_error(rows[:stop], sketch)
            assert document["estimate"] == pytest.approx(truth, rel=1e-12, abs=0.0)
            assert document == cluster.query(ApproximationError()).to_dict()


@pytest.mark.parametrize("spec", sorted(set(MATRIX_SPECS) - {"matrix/P2"}))
def test_other_matrix_specs_serve_no_error(spec):
    rows = _rows("pamap")[:600]
    tracker = repro.Tracker.create(spec, **_params(spec, 2014, rows.shape[1]))
    tracker.run(rows)
    answer = tracker.query(ApproximationError())
    assert answer.estimate is None and answer.error_bound is None
    assert answer.items_processed == rows.shape[0]
    assert tracker.protocol.missing_mass() is None


def test_p2_with_a_coordinator_sketch_serves_no_error():
    rows = _rows("pamap")[:600]
    tracker = repro.Tracker.create(
        "matrix/P2", num_sites=NUM_SITES, dimension=rows.shape[1], epsilon=0.1,
        coordinator_sketch_size=20)
    tracker.run(rows)
    assert tracker.query(ApproximationError()).estimate is None


def test_one_shard_without_a_proof_voids_the_merged_error():
    rows = _rows("pamap")[:600]
    exact, compressed = (
        repro.create("matrix/P2", num_sites=NUM_SITES, dimension=rows.shape[1],
                     epsilon=0.1, coordinator_sketch_size=size)
        for size in (None, 20))
    for protocol in (exact, compressed):
        for index, row in enumerate(rows):
            protocol.process(index % NUM_SITES, row)
    query = ApproximationError()
    proven = query.combine([query.materials(exact), query.materials(exact)])
    assert proven.estimate is not None and proven.error_bound is not None
    merged = query.combine([query.materials(exact), query.materials(compressed)])
    assert merged.estimate is None and merged.error_bound is None
    assert merged.items_processed == 2 * rows.shape[0]


# ------------------------------------------------------- retired truth keys
@pytest.mark.parametrize("fixture", ["hh_p2_v1.ckpt", "matrix_p3_v1.ckpt"])
def test_checkpoints_with_truth_accumulators_load_without_them(fixture, tmp_path):
    _, payload = read_legacy((FIXTURES / fixture).read_bytes())
    assert any("observed" in key for key in payload["protocol"]["data"])

    tracker = repro.Tracker.load(FIXTURES / fixture)
    assert not any("observed" in name for name in vars(tracker.protocol))
    for compress in (False, True):
        path = tmp_path / f"resaved-{compress}.ckpt"
        tracker.save(path, compress=compress)
        _, resaved = unpack_frame(path.read_bytes())
        assert not any("observed" in key
                       for key in resaved["protocol"]["state"])
        assert repro.Tracker.load(path).items_processed == tracker.items_processed
