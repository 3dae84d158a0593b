"""Speed-up floors of the batched ingestion engine, over the public API.

Each floor replays one materialised stream into fresh sessions — once
through per-item dispatch (``chunk_size=None``), best-of-N through the
chunked ``observe_batch`` path — and asserts the ratio.  The heavy-hitter
floors use the paper's Zipfian workload at a stream length where flush
costs are amortised (10^6 items, scaled by ``REPRO_BENCH_SCALE``); the
matrix workload is SVD-compaction-bound in both paths, hence its lower
floor.  The process-backend scaling floor needs 4 idle cores and is
skipped on smaller hosts.  Absolute items/sec are ``bench/run.py``'s job.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np
import pytest

from repro import ShardedTracker, Tracker
from repro.data.synthetic_matrix import make_pamap_like
from repro.data.zipfian import ZipfianStreamGenerator
from repro.streaming.items import WeightedItemBatch

CHUNK_SIZE = 16_384
SEED = 2014


def _zipfian_batch(num_items: int) -> WeightedItemBatch:
    generator = ZipfianStreamGenerator(universe_size=10_000, skew=2.0,
                                       beta=1_000.0, seed=SEED)
    return WeightedItemBatch.from_pairs(generator.generate(num_items).items)


def _pamap_rows(num_rows: int) -> np.ndarray:
    rows = make_pamap_like(num_rows=num_rows, seed=SEED).rows
    return np.ascontiguousarray(rows, dtype=np.float64)


def _best_run_seconds(make_session, stream, repeats: int) -> float:
    """Best wall time of ``session.run(stream)`` over fresh sessions."""
    best = float("inf")
    for _ in range(repeats):
        session = make_session()
        try:
            started = perf_counter()
            session.run(stream)
            best = min(best, perf_counter() - started)
        finally:
            if isinstance(session, ShardedTracker):
                session.close()
    return best


@pytest.mark.parametrize("spec, params, make_stream, size, repeats, floor", [
    # The acceptance bar for the batched engine: one order of magnitude.
    ("hh/P1", {"epsilon": 0.05}, _zipfian_batch, 1_000_000, 3, 10.0),
    # P2's trigger-split kernel and P3's block-draw kernel.
    ("hh/P2", {"epsilon": 0.05}, _zipfian_batch, 1_000_000, 3, 3.0),
    ("hh/P3", {"epsilon": 0.05, "sample_size": 400, "seed": SEED},
     _zipfian_batch, 1_000_000, 3, 3.0),
    # Both paths share the FD compaction SVDs, which bound the win.
    ("matrix/P1", {"epsilon": 0.2, "dimension": 44}, _pamap_rows,
     100_000, 2, 1.5),
])
def test_batched_dispatch_speedup_floor(bench_scale, spec, params,
                                        make_stream, size, repeats, floor):
    stream = make_stream(int(size * bench_scale))

    def session(chunk_size):
        return lambda: Tracker.create(spec, chunk_size=chunk_size,
                                      num_sites=10, **params)

    per_item = _best_run_seconds(session(None), stream, 1)
    batched = _best_run_seconds(session(CHUNK_SIZE), stream, repeats)
    speedup = per_item / batched
    print(f"\n{spec}: {len(stream) / batched:,.0f} items/s batched vs "
          f"{len(stream) / per_item:,.0f} per-item ({speedup:.1f}x)")
    assert speedup >= floor, (
        f"{spec} batched path is only {speedup:.1f}x the per-item path "
        f"(floor {floor}x)")


def test_process_backend_scaling_floor(bench_scale):
    """≥1.5× items/sec at 4 process shards versus 1, when 4 cores exist."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    stream = _zipfian_batch(int(1_000_000 * bench_scale))
    rates = {}
    for shards in (1, 2, 4) if cpus >= 4 else (1, 2):
        rates[shards] = len(stream) / _best_run_seconds(
            lambda: ShardedTracker.create(
                "hh/P2", shards=shards, backend="process",
                chunk_size=CHUNK_SIZE, num_sites=10, epsilon=0.05),
            stream, 2)
        print(f"\n{shards} process shard(s): {rates[shards]:,.0f} items/s")
    if cpus < 4:
        pytest.skip(f"scaling assertion needs >=4 cores, host has {cpus}")
    speedup = rates[4] / rates[1]
    assert speedup >= 1.5, (
        f"4 process-backend shards give only {speedup:.2f}x the 1-shard rate")
