"""Matrix P2's coordinator keeps ``BᵀB`` between arriving directions.

``B`` grows only when a site sends a direction, so
:meth:`DeterministicDirectionProtocol.covariance` answers from the ``BᵀB``
it computed at the current row count and recomputes it when the count
moves.  These properties pin that the cache is invisible:

* **Per step** — per-item pushes with a ``Covariance`` query after each
  one: every answer is bit-equal to ``B.T @ B`` recomputed from
  ``sketch_matrix()``, across emissions, with and without an FD-compressed
  coordinator (``coordinator_sketch_size``, which is not cached).
* **Checkpoints** — a session saved and loaded mid-stream answers exactly
  as the live one; a restore drops the cache even at an equal row count.
* **Ownership** — writing into a returned matrix or ``Answer.estimate``
  does not change the next answer.
* **State** — querying leaves the uncompressed ``tracker_frame`` bytes
  unchanged: the cache is never checkpoint state.
* **Cluster** — a 2-shard ``process`` cluster answers as a ``serial`` one.

Seeds come from ``REPRO_PROPERTY_SEEDS``, as in
``test_protocol_equivalence_properties.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import Covariance
from repro.api.state import tracker_frame

from test_protocol_equivalence_properties import NUM_SITES, SEEDS, matrix_stream

EPSILON = 0.1

#: Without and with the FD-compressed coordinator of Section 5.2.
COORDINATORS = {"stacked": {}, "fd": {"coordinator_sketch_size": 8}}


def _create(dimension: int, coordinator: str, **options) -> repro.Tracker:
    return repro.Tracker.create(
        "matrix/P2", num_sites=NUM_SITES, dimension=dimension,
        epsilon=EPSILON, cache_size=0, **COORDINATORS[coordinator],
        **options)


def _rows_and_sites(seed):
    dataset, batch, sites = matrix_stream(seed)
    return dataset.rows, [int(site) for site in sites]


def _recomputed(tracker) -> np.ndarray:
    sketch = tracker.protocol.sketch_matrix()
    return sketch.T @ sketch


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.tobytes() == right.tobytes()


@pytest.mark.parametrize("coordinator", sorted(COORDINATORS))
@pytest.mark.parametrize("seed", SEEDS)
def test_every_answer_equals_a_recomputed_gram(seed, coordinator):
    rows, sites = _rows_and_sites(seed)
    tracker = _create(rows.shape[1], coordinator)
    arrivals = 0  # pushes after which B received a direction
    for site, row in zip(sites, rows):
        before = tracker.protocol.message_counts().get("kind_vector", 0)
        tracker.push(site, row)
        arrivals += tracker.protocol.message_counts().get("kind_vector", 0) > before
        answer = tracker.query(Covariance())
        assert _same_bits(answer.estimate, _recomputed(tracker))
    assert arrivals > 10


@pytest.mark.parametrize("coordinator", sorted(COORDINATORS))
@pytest.mark.parametrize("seed", SEEDS)
def test_a_resumed_session_answers_as_the_live_one(seed, coordinator,
                                                   tmp_path):
    rows, sites = _rows_and_sites(seed)
    live = _create(rows.shape[1], coordinator)
    split = len(rows) // 2
    for site, row in zip(sites[:split], rows[:split]):
        live.push(site, row)
        live.query(Covariance())
    path = tmp_path / "p2.ckpt"
    live.save(path)
    resumed = repro.Tracker.load(path)
    for site, row in zip(sites[split:], rows[split:]):
        for tracker in (live, resumed):
            tracker.push(site, row)
        assert _same_bits(resumed.query(Covariance()).estimate,
                          live.query(Covariance()).estimate)
    assert tracker_frame(resumed) == tracker_frame(live)


def test_a_restore_drops_the_cache_at_an_equal_row_count():
    rows, sites = _rows_and_sites(SEEDS[0])
    protocol = _create(rows.shape[1], "stacked").protocol
    for site, row in zip(sites, rows):
        protocol.observe(site, row)
    cached = protocol.covariance()
    state = protocol.state_dict()
    state["coordinator_rows"] = 2.0 * state["coordinator_rows"]
    protocol.load_state_dict(state)
    doubled = state["coordinator_rows"]
    assert _same_bits(protocol.covariance(), doubled.T @ doubled)
    assert not np.array_equal(protocol.covariance(), cached)


@pytest.mark.parametrize("coordinator", sorted(COORDINATORS))
def test_writing_into_an_answer_changes_no_later_answer(coordinator):
    rows, sites = _rows_and_sites(SEEDS[0])
    tracker = _create(rows.shape[1], coordinator)
    for site, row in zip(sites, rows):
        tracker.push(site, row)
    kept = tracker.query(Covariance()).estimate.copy()
    assert kept.any()
    tracker.protocol.covariance()[:] = np.nan
    tracker.query(Covariance()).estimate[:] = np.nan
    assert _same_bits(tracker.protocol.covariance(), kept)
    assert _same_bits(tracker.query(Covariance()).estimate, kept)


@pytest.mark.parametrize("coordinator", sorted(COORDINATORS))
@pytest.mark.parametrize("seed", SEEDS)
def test_queries_leave_the_checkpoint_bytes_unchanged(seed, coordinator):
    rows, sites = _rows_and_sites(seed)
    queried = _create(rows.shape[1], coordinator)
    silent = _create(rows.shape[1], coordinator)
    for step, (site, row) in enumerate(zip(sites, rows)):
        for tracker in (queried, silent):
            tracker.push(site, row)
        queried.query(Covariance())
        if step % 50 == 0:
            assert tracker_frame(queried) == tracker_frame(silent)
    assert tracker_frame(queried) == tracker_frame(silent)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_process_cluster_answers_as_a_serial_one(seed):
    rows, sites = _rows_and_sites(seed)
    params = {"num_sites": NUM_SITES, "dimension": rows.shape[1],
              "epsilon": EPSILON, "cache_size": 0}
    with repro.ShardedTracker.create("matrix/P2", shards=2, backend="serial",
                                     **params) as serial, \
            repro.ShardedTracker.create("matrix/P2", shards=2,
                                        backend="process",
                                        **params) as remote:
        for site, row in zip(sites, rows):
            for cluster in (serial, remote):
                cluster.push(site, row)
            assert _same_bits(remote.query(Covariance()).estimate,
                              serial.query(Covariance()).estimate)
