"""Golden-fixture forward-loadability: committed v1 wire checkpoints load.

``tests/fixtures/`` carries small v1 checkpoints (one heavy-hitter spec, one
matrix spec, both saved *mid-stream*) plus the exact answers recorded when
they were written.  Every build must keep loading them and answering
**exactly** the recorded values — so an accidental change to the wire tag
set, the frame layout or the checkpoint payload breaks CI instead of
silently orphaning every checkpoint in the field.  Legitimate format
changes bump ``CHECKPOINT_VERSION``/``WIRE_VERSION`` and regenerate the
fixtures via ``tests/fixtures/make_golden.py`` (committing new files *next
to* the old ones when the old version remains loadable).

``matrix_p2_v2.ckpt`` and ``matrix_p2_v3.ckpt`` pin the opposite:
``matrix/P2`` state layouts that later builds retired, which every build
since must refuse, naming the class, rather than resume.

The recorded answers are BLAS-free arithmetic (counter sums, sampling
draws, Frobenius accumulation), so exact float equality is portable.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import FrobeniusSquared, HeavyHitters, TotalWeight
from repro.api.state import CHECKPOINT_VERSION, CheckpointError, tracker_payload
from repro.matrix_tracking import DeterministicDirectionProtocol
from repro.utils.stateio import StateError, restore_object
from repro.wire import is_wire_data, pack_frame, unpack_frame, write_frame

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURES / "golden_answers.json") as handle:
        return json.load(handle)


def test_fixture_files_are_wire_frames_not_pickles(golden):
    for record in (golden["hh"], golden["matrix"]):
        data = (FIXTURES / record["file"]).read_bytes()
        assert is_wire_data(data)
        assert not data.startswith(b"\x80")


def test_hh_golden_checkpoint_loads_and_answers_exactly(golden):
    record = golden["hh"]
    tracker = repro.Tracker.load(FIXTURES / record["file"])
    assert tracker.spec == record["spec"]
    assert tracker.items_processed == record["items_processed"]
    assert tracker.protocol.message_counts() == record["message_counts"]

    hitters = tracker.query(HeavyHitters(phi=0.05))
    assert [
        {"element": int(hitter.element),
         "estimated_weight": hitter.estimated_weight}
        for hitter in hitters.hitters
    ] == record["heavy_hitters"]
    assert hitters.error_bound == record["hh_error_bound"]
    assert tracker.query(TotalWeight()).estimate \
        == record["total_weight_estimate"]


def test_hh_golden_checkpoint_resumes_ingestion(golden):
    """The fixture was saved mid-stream: the restored session must keep
    ingesting (pending per-site deltas intact), not just answer queries."""
    record = golden["hh"]
    tracker = repro.Tracker.load(FIXTURES / record["file"])
    before = tracker.query(TotalWeight()).estimate
    tracker.run([(0, 5.0), (1, 3.0)])
    assert tracker.items_processed == record["items_processed"] + 2
    assert tracker.query(TotalWeight()).estimate >= before


def test_matrix_golden_checkpoint_loads_and_answers_exactly(golden):
    record = golden["matrix"]
    tracker = repro.Tracker.load(FIXTURES / record["file"])
    assert tracker.spec == record["spec"]
    assert tracker.items_processed == record["items_processed"]
    assert tracker.protocol.message_counts() == record["message_counts"]

    frobenius = tracker.query(FrobeniusSquared())
    assert frobenius.estimate == record["frobenius_estimate"]
    assert frobenius.error_bound == record["frobenius_error_bound"]


def test_versions_recorded_match_this_build(golden):
    from repro.api.state import CHECKPOINT_VERSION
    from repro.wire import WIRE_BASE_VERSION, WIRE_VERSION

    # When either version bumps, regenerate fixtures for the new version
    # and keep this file asserting the OLD files still load (or document
    # the migration); failing here forces that decision to be explicit.
    assert golden["checkpoint_version"] == CHECKPOINT_VERSION
    # The fixtures are written uncompressed on purpose, so they stay at the
    # base wire version: their job is to pin forward-loadability of plain
    # version-1 frames under every newer build (which may itself write
    # compressed version-2 frames by default).
    assert WIRE_BASE_VERSION <= golden["wire_version"] <= WIRE_VERSION


@pytest.mark.parametrize("spec, params", [
    ("hh/P3wr", {"num_samplers": 4, "seed": 0}),
    ("matrix/P3wr", {"dimension": 3, "num_samplers": 4, "seed": 0}),
    ("matrix/P1", {"dimension": 3}),
    ("matrix/P4", {"dimension": 3, "seed": 0}),
])
def test_version_1_with_replacement_sampling_state_is_refused(spec, params):
    """States captured before a class's layout moved to a shared module
    (state version 1) must fail loudly, naming the class, never resume.
    For P3wr the sampler slots and exact-mode bookkeeping moved to
    ``streaming/priority_sampling.py``; the without-replacement classes
    kept their layout and version — ``matrix_p3_v1.ckpt`` above still
    loads.  For ``matrix/P1`` and ``matrix/P4`` the weight rounds moved to
    ``streaming/weight_rounds.py`` under the heavy-hitter names (and P4's
    site covariance and basis became column energies)."""
    protocol = repro.create(spec, num_sites=2, epsilon=0.5, **params)
    state = protocol.get_state()
    assert state["state_version"] == 2
    state["state_version"] = 1
    with pytest.raises(StateError, match=type(protocol).__name__):
        restore_object(state)


def _p2_version_1(state):
    """A ``matrix/P2`` state as version 1 captured it: each site residual
    kept as its rows (the light directions plus the rows since)."""
    state = dict(state, state_version=1)
    state["component_versions"] = tuple(
        (cls, 1 if cls is DeterministicDirectionProtocol else version)
        for cls, version in state["component_versions"])
    data = copy.deepcopy(state["data"])
    for site in data["_sites"]:
        rows = site.pending[:site.filled]
        site.__dict__ = {"dimension": rows.shape[1], "rows": [rows],
                         "norm_since_scalar": site.norm_since_scalar,
                         "top_bound": site.top_bound}
    state["data"] = data
    return state


def _refusal_cause(excinfo):
    """The ``StateError`` behind a refusal, wherever it was wrapped."""
    error = excinfo.value
    while error is not None and not isinstance(error, StateError):
        error = error.__cause__
    return error


def test_version_1_p2_row_residual_is_refused(tmp_path):
    """Version-1 ``matrix/P2`` states keep each site residual as rows; this
    build keeps a ``d × d`` Gram.  There is no conversion: such a state fails
    loudly, naming the class — loaded directly, through ``Tracker.load`` and
    inside a cluster checkpoint — and never resumes."""
    name = DeterministicDirectionProtocol.__name__
    rows = np.arange(12.0).reshape(4, 3)
    tracker = repro.Tracker.create("matrix/P2", num_sites=2, dimension=3,
                                   epsilon=0.5)
    tracker.push_batch([0, 1, 0, 1], rows)
    state = tracker.protocol.get_state()
    assert state["state_version"] == 4
    with pytest.raises(StateError, match=name):
        restore_object(_p2_version_1(state))

    payload = tracker_payload(tracker)
    payload["protocol"] = _p2_version_1(payload["protocol"])
    payload["version"] = CHECKPOINT_VERSION
    write_frame(tmp_path / "tracker.ckpt", "repro/tracker-checkpoint", payload)
    with pytest.raises(CheckpointError, match=name) as refusal:
        repro.Tracker.load(tmp_path / "tracker.ckpt")
    assert name in str(_refusal_cause(refusal))

    _assert_cluster_refuses(tmp_path / "cluster.ckpt", _p2_version_1)


def _assert_cluster_refuses(path, protocol_state):
    """Save a 2-shard ``matrix/P2`` cluster, replace every shard's protocol
    state by ``protocol_state(state)``, and check the load names the class."""
    name = DeterministicDirectionProtocol.__name__
    with repro.ShardedTracker.create("matrix/P2", shards=2, backend="serial",
                                     num_sites=2, dimension=3,
                                     epsilon=0.5) as cluster:
        cluster.push_batch(np.arange(12.0).reshape(4, 3))
        cluster.save(path)
    kind, checkpoint = unpack_frame(path.read_bytes())
    shard_payloads = []
    for frame in checkpoint["shard_payloads"]:
        shard_kind, shard = unpack_frame(frame)
        shard["protocol"] = protocol_state(shard["protocol"])
        shard_payloads.append(pack_frame(shard_kind, shard))
    checkpoint["shard_payloads"] = shard_payloads
    write_frame(path, kind, checkpoint)
    with pytest.raises(CheckpointError, match=name) as refusal:
        repro.ShardedTracker.load(path)
    assert name in str(_refusal_cause(refusal))


@pytest.mark.parametrize("fixture, version, retired", [
    # Version 2 kept the coordinator's ``B`` as a list of row arrays.
    ("matrix_p2_v2.ckpt", 2,
     lambda data: isinstance(data["_coordinator_rows"], list)),
    # Version 3 named the rounds' estimate after the norm.
    ("matrix_p2_v3.ckpt", 3, lambda data: "_estimated_norm" in data),
])
def test_version_2_p2_row_list_is_refused(tmp_path, fixture, version, retired):
    """Each fixture was written by the last build of its ``matrix/P2``
    state layout; this build keeps ``B`` as one array of the live rows and
    the rounds under the heavy-hitter names.  There is no conversion: the
    state fails loudly, naming the class — loaded directly, through
    ``Tracker.load`` and inside a cluster checkpoint — and never resumes."""
    name = DeterministicDirectionProtocol.__name__
    fixture = FIXTURES / fixture
    _, payload = unpack_frame(fixture.read_bytes())
    state = payload["protocol"]
    assert state["state_version"] == version
    assert retired(state["data"])
    with pytest.raises(StateError, match=name):
        restore_object(state)

    with pytest.raises(CheckpointError, match=name) as refusal:
        repro.Tracker.load(fixture)
    assert name in str(_refusal_cause(refusal))

    _assert_cluster_refuses(tmp_path / "cluster.ckpt", lambda _: state)
