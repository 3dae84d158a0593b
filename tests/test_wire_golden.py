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

The v1 fixtures are in the retired object format (checkpoint version 1):
:mod:`repro.api.legacy` converts their two layouts.  The current-version
fixtures (``golden["current"]``) pin the declared format the same way.

``matrix_p2_v2.ckpt`` and ``matrix_p2_v3.ckpt`` pin the opposite:
``matrix/P2`` state layouts that later builds retired, which every build
since must refuse, naming the class, rather than resume.

The recorded answers are BLAS-free arithmetic (counter sums, sampling
draws, Frobenius accumulation), so exact float equality is portable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import FrobeniusSquared, HeavyHitters, TotalWeight
from repro.api.state import CheckpointError, tracker_frame
from repro.matrix_tracking import DeterministicDirectionProtocol
from repro.wire import is_wire_data, pack_frame, unpack_frame, write_frame
from repro.wire.frames import pack_raw_frame, unpack_raw_frame

from old_format import old_state, old_tracker_checkpoint

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


@pytest.mark.parametrize("domain", ["hh", "matrix"])
def test_compressed_version_1_fixtures_convert_to_the_same_state(golden,
                                                                 domain):
    """``*_v1_compressed.ckpt`` hold the v1 fixtures' sessions as the last
    build of the object format (``1178b4f``) saved them with
    ``compress=True``: a deflated tree, hh/P2's deltas as numeric dicts.
    They convert to exactly the state of the uncompressed fixtures."""
    plain = FIXTURES / golden[domain]["file"]
    compressed = plain.with_name(plain.stem + "_compressed.ckpt")
    assert compressed.read_bytes()[4] == 2  # a version-2 frame
    assert tracker_frame(repro.Tracker.load(compressed)) == \
        tracker_frame(repro.Tracker.load(plain))


def test_current_fixtures_load_and_answer_exactly(golden):
    """The fixtures of this build's format pass the same checks."""
    current = golden["current"]
    for record in (current["hh"], current["matrix"]):
        assert (FIXTURES / record["file"]).read_bytes()[:4] == b"RPW1"
    test_hh_golden_checkpoint_loads_and_answers_exactly(current)
    test_hh_golden_checkpoint_resumes_ingestion(current)
    test_matrix_golden_checkpoint_loads_and_answers_exactly(current)


def test_versions_recorded_match_this_build(golden):
    from repro.api.state import CHECKPOINT_VERSION
    from repro.wire import WIRE_BASE_VERSION, WIRE_VERSION

    # The top-level records are the version-1 (object format) fixtures,
    # read by repro.api.legacy; "current" holds this build's.  When either
    # version bumps, regenerate "current" and keep the older files loading
    # (or document the migration): failing here forces that decision.
    assert golden["checkpoint_version"] == 1
    assert golden["current"]["checkpoint_version"] == CHECKPOINT_VERSION
    # The fixtures are written uncompressed on purpose, so they stay at the
    # base wire version: their job is to pin forward-loadability of plain
    # version-1 frames under every newer build (which may itself write
    # compressed version-2 frames by default).
    for record in (golden, golden["current"]):
        assert WIRE_BASE_VERSION <= record["wire_version"] <= WIRE_VERSION


@pytest.mark.parametrize("name, version", [
    # Layouts of a shared core that later moved (P3wr's sampler slots, the
    # weight rounds of matrix P1 and P4), P2's row residual, a layout that
    # converts at another version, and a class that has no layout at all.
    ("repro.heavy_hitters.p3_sampling:WithReplacementSamplingProtocol", 1),
    ("repro.matrix_tracking.p3_sampling:WithReplacementMatrixSamplingProtocol",
     1),
    ("repro.matrix_tracking.p1_batched_fd:BatchedFrequentDirectionsProtocol",
     1),
    ("repro.matrix_tracking.p4_singular_directions:"
     "SingularDirectionUpdateProtocol", 1),
    ("repro.matrix_tracking.p2_deterministic:DeterministicDirectionProtocol",
     1),
    ("repro.heavy_hitters.p2_threshold:ThresholdedUpdatesProtocol", 2),
    ("repro.api.tracker:Tracker", 1),
])
def test_version_1_states_outside_the_converted_layouts_are_refused(
        tmp_path, name, version):
    """Only ``hh/P2``'s and ``matrix/P3``'s version-1 layouts convert;
    every other old state fails loudly, naming its class, and never
    resumes."""
    path = tmp_path / "old.ckpt"
    path.write_bytes(old_tracker_checkpoint(old_state(name, version, {})))
    with pytest.raises(CheckpointError, match=name.rpartition(":")[2]):
        repro.Tracker.load(path)


def _refusal_cause(excinfo):
    """The ``CheckpointError`` behind a refusal, wherever it was wrapped."""
    error = excinfo.value
    while error is not None and not isinstance(error, CheckpointError):
        error = error.__cause__
    return error


def _assert_cluster_refuses(path, fixture):
    """Save a 2-shard ``matrix/P2`` cluster, replace every shard's payload
    frame by the fixture's checkpoint, and check the load names the class."""
    name = DeterministicDirectionProtocol.__name__
    with repro.ShardedTracker.create("matrix/P2", shards=2, backend="serial",
                                     num_sites=2, dimension=3,
                                     epsilon=0.5) as cluster:
        cluster.push_batch(np.arange(12.0).reshape(4, 3))
        cluster.save(path)
    kind, checkpoint = unpack_frame(path.read_bytes())
    body = unpack_raw_frame(fixture.read_bytes(), "repro/tracker-checkpoint")
    checkpoint["shard_payloads"] = [
        pack_raw_frame("repro/tracker-payload", bytes(body))
        for _ in checkpoint["shard_payloads"]]
    write_frame(path, kind, checkpoint)
    with pytest.raises(CheckpointError, match=name) as refusal:
        repro.ShardedTracker.load(path)
    assert name in str(_refusal_cause(refusal))


@pytest.mark.parametrize("fixture, version", [
    # Version 2 kept the coordinator's ``B`` as a list of row arrays.
    ("matrix_p2_v2.ckpt", 2),
    # Version 3 named the rounds' estimate after the norm.
    ("matrix_p2_v3.ckpt", 3),
])
def test_version_2_p2_row_list_is_refused(tmp_path, fixture, version):
    """Each fixture was written by the last build of its ``matrix/P2``
    state layout, in the object format.  There is no conversion: the state
    fails loudly, naming the class and its version — through
    ``Tracker.load`` and inside a cluster checkpoint — and never resumes."""
    name = DeterministicDirectionProtocol.__name__
    fixture = FIXTURES / fixture
    with pytest.raises(CheckpointError,
                       match=f"{name} state version {version}") as refusal:
        repro.Tracker.load(fixture)
    assert name in str(_refusal_cause(refusal))

    _assert_cluster_refuses(tmp_path / "cluster.ckpt", fixture)
