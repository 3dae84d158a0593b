"""The rule behind scalars-only shard replies: a quiet push moves no
coordinator field.

A cluster query sends each shard whose items moved the ``epoch`` of the
part it holds for that shard; a shard still at that epoch leaves the
query's ``coordinator_fields`` (``estimates``, ``covariance``, ``norms``,
``sketch``) out of its reply, and the caller keeps its own.  That is
exact only if no push that leaves a protocol's ``coordinator_epoch``
unchanged can change those fields.  In the paper's model the epoch is the
message count (only a message reaches the coordinator); the sampling
protocols' coordinators also leave exact mode when a site *drops* an item,
which sends nothing, so their epoch counts that too.

For every registered spec, seeded from ``REPRO_PROPERTY_SEEDS``, items
are pushed one at a time and, whenever a push leaves the epoch unchanged,
every declared coordinator field must be bitwise-equal before and after
(arrays by ``tobytes()``, maps by their items in order).  A protocol that
breaks the rule fails here, not as a stale cluster answer.
"""

from __future__ import annotations

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

from test_api_state_roundtrip import HH_SPECS, MATRIX_SPECS, _params
from test_protocol_equivalence_properties import (
    SEEDS,
    hh_stream,
    matrix_stream,
)

#: Specs that forward every item to the coordinator: no push is quiet, so
#: the rule holds for them without a case to check.
FORWARDING = {"hh/exact", "matrix/FD", "matrix/SVD"}
#: Specs whose coordinator leaves exact mode without a message.
SAMPLING = {"hh/P3", "hh/P3wr", "matrix/P3", "matrix/P3wr"}


def _stream(spec, seed):
    """``(tracker, batch, sites, queries)``: one query of every kind."""
    if spec in HH_SPECS:
        _sample, batch, sites = hh_stream(seed)
        dimension = None
        queries = [HeavyHitters(phi=0.06), Frequency(element=batch.elements[0]),
                   TotalWeight()]
    else:
        dataset, batch, sites = matrix_stream(seed)
        dimension = dataset.dimension
        probe = np.zeros(dimension)
        probe[0] = 1.0
        queries = [Covariance(), Norms(directions=probe),
                   Norms(directions=np.eye(dimension)[:3]), SketchMatrix(),
                   FrobeniusSquared(), ApproximationError()]
    tracker = repro.Tracker.create(spec, **_params(spec, seed, dimension))
    return tracker, batch, sites, queries


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return list(value.items())
    return value


def _coordinator_bits(query, protocol):
    materials = query.materials(protocol)
    return [_bits(materials[name]) for name in query.coordinator_fields]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
def test_quiet_push_moves_no_coordinator_field(spec, seed):
    tracker, batch, sites, queries = _stream(spec, seed)
    protocol = tracker.protocol
    declaring = [query for query in queries if query.coordinator_fields]
    epoch = protocol.coordinator_epoch
    before = [_coordinator_bits(query, protocol) for query in declaring]
    quiet = 0
    for index in range(len(batch)):
        tracker.push_batch([int(sites[index])], batch[index:index + 1])
        after = [_coordinator_bits(query, protocol) for query in declaring]
        if protocol.coordinator_epoch == epoch:
            quiet += 1
            for query, old, new in zip(declaring, before, after):
                assert new == old, (
                    f"{type(query).__name__}.{query.coordinator_fields} "
                    f"moved on quiet push {index}")
        epoch, before = protocol.coordinator_epoch, after
    assert (quiet == 0) == (spec in FORWARDING)


@pytest.mark.parametrize("spec", sorted(HH_SPECS) + sorted(MATRIX_SPECS))
def test_epoch_is_the_message_count_but_for_sampling(spec):
    """The epoch is ``total_messages`` wherever only a message reaches the
    coordinator; the sampling protocols' also counts the end of exact
    mode, which a site brings about by dropping an item."""
    tracker, batch, sites, _queries = _stream(spec, SEEDS[0])
    tracker.push_batch(sites, batch)
    protocol = tracker.protocol
    messages = protocol.total_messages
    if spec in SAMPLING:
        assert not protocol._is_exact
        assert protocol.coordinator_epoch == 2 * messages + 1
    else:
        assert protocol.coordinator_epoch == messages


@pytest.mark.parametrize("spec", ["hh/P3wr", "matrix/P3wr"])
def test_a_dropped_item_moves_the_sample_without_a_message(spec):
    """Why the sampling epoch is not the message count alone: the first
    dropped item changes the coordinator's answer, sends nothing, and
    moves the epoch."""
    tracker, batch, sites, queries = _stream(spec, SEEDS[0])
    protocol = tracker.protocol
    query = next(query for query in queries if query.coordinator_fields)
    for index in range(len(batch)):
        messages, epoch = protocol.total_messages, protocol.coordinator_epoch
        before = _coordinator_bits(query, protocol)
        tracker.push_batch([int(sites[index])], batch[index:index + 1])
        if not protocol._is_exact:
            break
    assert protocol.total_messages == messages
    assert _coordinator_bits(query, protocol) != before
    assert protocol.coordinator_epoch == epoch + 1


@pytest.mark.parametrize("query", [
    HeavyHitters(phi=0.06), Covariance(), Norms(directions=np.eye(4)[0]),
    SketchMatrix()], ids=lambda query: type(query).__name__)
def test_unchanged_materials_are_materials_less_the_coordinator_fields(query):
    spec = "hh/P2" if query.domain == "hh" else "matrix/P2"
    params = {"num_sites": 3, "epsilon": 0.1}
    if query.domain != "hh":
        params["dimension"] = 4
    tracker = repro.Tracker.create(spec, **params)
    rng = np.random.default_rng(5)
    for index in range(60):
        item = ((int(rng.integers(6)), 1.0) if query.domain == "hh"
                else rng.normal(size=4))
        tracker.push(index % 3, item)
    full = query.materials(tracker.protocol)
    scalars = query.unchanged_materials(tracker.protocol)
    assert set(full) == set(scalars) | set(query.coordinator_fields)
    assert not set(scalars) & set(query.coordinator_fields)
    assert {name: full[name] for name in scalars} == scalars
