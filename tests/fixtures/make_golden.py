"""Regenerate the golden wire-checkpoint fixtures.

Run from the repository root when (and only when) the checkpoint layout
legitimately changes::

    PYTHONPATH=src python tests/fixtures/make_golden.py

The committed fixtures pin **forward-loadability**: a v1 checkpoint written
by the build that introduced the wire format must keep loading — and keep
answering exactly the recorded answers — in every later build, or CI fails
and the format bump must be made explicit (new ``CHECKPOINT_VERSION`` /
``WIRE_VERSION`` plus a migration note).

A second kind of fixture pins a **refusal**: ``matrix_p2_v2.ckpt`` and
``matrix_p2_v3.ckpt`` are ``matrix/P2`` checkpoints in state layouts later
builds retired, and those builds must refuse them with an error naming the
class.  Such a fixture can only be written by the last build of its layout,
so it is not part of the default run; write it, named by the running
build's P2 state version, with::

    PYTHONPATH=src python tests/fixtures/make_golden.py --p2-state

Everything recorded is BLAS-free arithmetic (weighted counter sums, priority
sampling, Frobenius accumulation), so the expected answers are exact across
platforms; queries that route through LAPACK/BLAS (covariance products,
SVD) are deliberately not part of the golden record.
"""

from __future__ import annotations

import argparse
import json
import struct
from pathlib import Path

import repro
from repro.api import FrobeniusSquared, HeavyHitters, TotalWeight
from repro.api.state import CHECKPOINT_VERSION
from repro.data.synthetic_matrix import make_pamap_like
from repro.data.zipfian import ZipfianStreamGenerator
from repro.matrix_tracking import DeterministicDirectionProtocol
from repro.streaming.items import WeightedItemBatch

FIXTURES = Path(__file__).parent

HH_SPEC = "hh/P2"
MATRIX_SPEC = "matrix/P3"
CHUNK = 50


def hh_fixture() -> dict:
    generator = ZipfianStreamGenerator(universe_size=200, skew=2.0,
                                       beta=50.0, seed=20140731)
    batch = WeightedItemBatch.from_pairs(generator.generate(1_500).items)
    tracker = repro.Tracker.create(HH_SPEC, num_sites=5, epsilon=0.1,
                                   chunk_size=CHUNK)
    tracker.run(batch[:1_000])  # mid-stream: sites hold pending deltas
    # compress=False on purpose: the fixtures pin forward-loadability of
    # plain base-version frames, independent of the current save defaults.
    tracker.save(FIXTURES / f"hh_p2_v{CHECKPOINT_VERSION}.ckpt",
                 compress=False)
    hitters = tracker.query(HeavyHitters(phi=0.05))
    total = tracker.query(TotalWeight())
    return {
        "spec": HH_SPEC,
        "file": f"hh_p2_v{CHECKPOINT_VERSION}.ckpt",
        "items_processed": tracker.items_processed,
        "message_counts": tracker.protocol.message_counts(),
        "heavy_hitters": [
            {"element": int(hitter.element),
             "estimated_weight": hitter.estimated_weight}
            for hitter in hitters.hitters
        ],
        "hh_error_bound": hitters.error_bound,
        "total_weight_estimate": total.estimate,
    }


def matrix_fixture() -> dict:
    dataset = make_pamap_like(num_rows=600, seed=11)
    tracker = repro.Tracker.create(MATRIX_SPEC, num_sites=5, epsilon=0.2,
                                   dimension=dataset.dimension,
                                   sample_size=80, seed=7, chunk_size=CHUNK)
    tracker.run(dataset.rows[:400])
    tracker.save(FIXTURES / f"matrix_p3_v{CHECKPOINT_VERSION}.ckpt",
                 compress=False)
    frobenius = tracker.query(FrobeniusSquared())
    return {
        "spec": MATRIX_SPEC,
        "file": f"matrix_p3_v{CHECKPOINT_VERSION}.ckpt",
        "items_processed": tracker.items_processed,
        "message_counts": tracker.protocol.message_counts(),
        "frobenius_estimate": frobenius.estimate,
        "frobenius_error_bound": frobenius.error_bound,
    }


def p2_state_fixture() -> str:
    """A mid-stream ``matrix/P2`` checkpoint named by this build's P2 state
    version; returns the file name."""
    dataset = make_pamap_like(num_rows=300, dimension=6, effective_rank=3,
                              seed=11)
    tracker = repro.Tracker.create("matrix/P2", num_sites=3, epsilon=0.2,
                                   dimension=dataset.dimension,
                                   chunk_size=CHUNK)
    tracker.run(dataset.rows[:200])
    name = f"matrix_p2_v{DeterministicDirectionProtocol.state_version}.ckpt"
    tracker.save(FIXTURES / name, compress=False)
    return name


def _frame_version(name: str) -> int:
    """The wire version actually stamped on a written fixture's header."""
    header = (FIXTURES / name).read_bytes()[:6]
    (version,) = struct.unpack_from("<H", header, 4)
    return version


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--p2-state", action="store_true",
                        help="write only the matrix/P2 state-layout fixture")
    if parser.parse_args().p2_state:
        print(f"wrote {FIXTURES / p2_state_fixture()}")
        return
    hh = hh_fixture()
    matrix = matrix_fixture()
    wire_version = max(_frame_version(hh["file"]),
                       _frame_version(matrix["file"]))
    golden = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "wire_version": wire_version,
        "hh": hh,
        "matrix": matrix,
    }
    with open(FIXTURES / "golden_answers.json", "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
    print(f"wrote fixtures for checkpoint v{CHECKPOINT_VERSION} "
          f"/ wire v{wire_version} under {FIXTURES}")


if __name__ == "__main__":
    main()
