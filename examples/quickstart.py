#!/usr/bin/env python
"""Quickstart: the unified ``Tracker`` session API over both problem domains.

This example walks through the two problem families of the paper on small
synthetic workloads, entirely through the ``repro.api`` facade:

1. *Distributed matrix tracking* — 20 sites each observe rows of a low-rank
   matrix; the coordinator continuously maintains a small approximation ``B``
   with ``|‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F`` while exchanging far fewer messages
   than shipping every row.
2. *Distributed weighted heavy hitters* — 20 sites observe a skewed weighted
   item stream; the coordinator reports every φ-heavy element.
3. *Checkpoint/resume* — a session saved mid-stream and restored continues
   bit-identically to one that never stopped.
4. *Sharded execution* — the same session with its sites split over several
   independent coordinator groups (``repro.ShardedTracker``); queries merge
   per-shard state into one answer with a summed error bound, and
   ``Answer.to_json()`` serialises it for serving-style consumers.

Protocols are resolved by registry spec name (``repro.create``/
``Tracker.create``); queries are typed objects answered with frozen
``Answer`` dataclasses carrying the estimate, the paper's error bound, and a
message/items snapshot.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

import repro
from repro.api import Covariance, HeavyHitters, Norms, TotalWeight
from repro.data import ZipfianStreamGenerator, make_pamap_like
from repro.streaming import WeightedItemBatch


def matrix_tracking_demo() -> None:
    """Track a low-rank matrix distributed over 20 sites."""
    print("=" * 72)
    print("Distributed matrix tracking (specs matrix/P2 vs matrix/P3)")
    print("=" * 72)

    num_sites = 20
    epsilon = 0.1
    dataset = make_pamap_like(num_rows=10_000)
    print(f"dataset: {dataset.name}  ({dataset.num_rows} rows x {dataset.dimension} cols)")

    trackers = {
        "matrix/P2": repro.Tracker.create(
            "matrix/P2", num_sites=num_sites, dimension=dataset.dimension,
            epsilon=epsilon),
        "matrix/P3": repro.Tracker.create(
            "matrix/P3", num_sites=num_sites, dimension=dataset.dimension,
            epsilon=epsilon, sample_size=600, seed=0),
    }

    exact_covariance = dataset.rows.T @ dataset.rows
    frobenius = float((dataset.rows ** 2).sum())
    for spec, tracker in trackers.items():
        # Rows arrive round-robin at the sites, as if 20 servers each logged
        # a share of the observations (the engine slices the block zero-copy).
        tracker.run(dataset.rows)
        answer = tracker.query(Covariance())
        err = (np.linalg.norm(exact_covariance - answer.matrix, ord=2)
               / frobenius)
        savings = dataset.num_rows / max(1, answer.total_messages)
        print(f"  {spec:10s} err = {err:.4f}   "
              f"messages = {answer.total_messages:6d}   "
              f"({savings:4.1f}x less than sending every row)")

    # The sketch supports the downstream query the paper motivates: norms
    # along arbitrary directions (e.g. principal components).
    tracker = trackers["matrix/P2"]
    direction = np.linalg.svd(dataset.rows, full_matrices=False)[2][0]
    true_norm = float(np.linalg.norm(dataset.rows @ direction) ** 2)
    answer = tracker.query(Norms(direction))
    print(f"  top-PC energy: true = {true_norm:.1f}, from sketch = "
          f"{answer.estimate:.1f} (additive bound {answer.error_bound:.1f})")
    print()


def heavy_hitters_demo() -> None:
    """Track weighted heavy hitters over a skewed distributed stream."""
    print("=" * 72)
    print("Distributed weighted heavy hitters (spec hh/P2)")
    print("=" * 72)

    phi = 0.05
    generator = ZipfianStreamGenerator(universe_size=5_000, skew=2.0, beta=1_000.0,
                                       seed=1)
    sample = generator.generate(50_000)

    tracker = repro.Tracker.create("hh/P2", num_sites=20, epsilon=0.02)
    tracker.run(WeightedItemBatch.from_pairs(sample.items))

    answer = tracker.query(HeavyHitters(phi=phi))
    total = tracker.query(TotalWeight())
    print(f"  stream: {len(sample)} items, total weight {sample.total_weight:.0f} "
          f"(estimated {total.estimate:.0f} +- {total.error_bound:.0f})")
    print(f"  messages = {answer.total_messages} "
          f"(vs {len(sample)} for forwarding everything)")
    print("  reported heavy hitters (element: estimated share):")
    for hitter in answer.hitters:
        print(f"    {int(hitter.element):6d}: {hitter.relative_weight:.3f}")
    print(f"  session: {tracker!r}")
    # Answers serialise to plain JSON for serving-style consumers.
    payload = answer.to_dict()
    print(f"  answer.to_dict(): {len(payload['estimate'])} hitters, "
          f"bound {payload['error_bound']:.1f}, "
          f"{payload['total_messages']} messages")
    print()


def checkpoint_demo() -> None:
    """Save a session mid-stream; the restored session continues identically."""
    print("=" * 72)
    print("Checkpoint/resume (spec hh/P3, randomized)")
    print("=" * 72)

    generator = ZipfianStreamGenerator(universe_size=2_000, skew=2.0, beta=100.0,
                                       seed=5)
    batch = WeightedItemBatch.from_pairs(generator.generate(20_000).items)
    half = len(batch) // 2

    def fresh() -> repro.Tracker:
        return repro.Tracker.create("hh/P3", num_sites=10, epsilon=0.05,
                                    sample_size=300, seed=7, chunk_size=1000)

    uninterrupted = fresh()
    uninterrupted.run(batch[:half])
    uninterrupted.run(batch[half:])

    interrupted = fresh()
    interrupted.run(batch[:half])
    path = os.path.join(tempfile.mkdtemp(), "session.ckpt")
    interrupted.save(path)
    resumed = repro.Tracker.load(path)       # e.g. after a process restart
    resumed.run(batch[half:])

    a = uninterrupted.query(HeavyHitters(phi=0.05))
    b = resumed.query(HeavyHitters(phi=0.05))
    print(f"  checkpoint: {path}")
    print(f"  uninterrupted: messages = {a.total_messages}, "
          f"hitters = {[int(h.element) for h in a.hitters]}")
    print(f"  resumed:       messages = {b.total_messages}, "
          f"hitters = {[int(h.element) for h in b.hitters]}")
    print(f"  bit-identical resume: {a == b}")
    os.remove(path)
    print()


def sharded_demo() -> None:
    """Shard one logical session over independent coordinator groups."""
    print("=" * 72)
    print("Sharded execution (repro.ShardedTracker, spec hh/P2)")
    print("=" * 72)

    generator = ZipfianStreamGenerator(universe_size=5_000, skew=2.0,
                                       beta=1_000.0, seed=1)
    batch = WeightedItemBatch.from_pairs(generator.generate(50_000).items)

    # The 20 sites are split over 4 shards (site i on shard i mod 4), each a
    # coordinator group over its 5 sites, so the cluster spends about one
    # coordinator's messages; 'serial' keeps everything in-process (swap in
    # backend="process" for persistent multi-core workers).
    with repro.ShardedTracker.create("hh/P2", shards=4, backend="serial",
                                     num_sites=20, epsilon=0.02) as cluster:
        cluster.run(batch)
        answer = cluster.query(HeavyHitters(phi=0.05))
        stats = cluster.stats()
        print(f"  cluster: {cluster!r}")
        print(f"  per-shard (items, messages): {list(stats.per_shard)}")
        print(f"  merged answer: {len(answer.hitters)} hitters, summed bound "
              f"{answer.error_bound:.0f}, {answer.total_messages} messages")
        print(f"  answer.to_json(): {answer.to_json()[:120]}...")
    print()


def main() -> None:
    matrix_tracking_demo()
    heavy_hitters_demo()
    checkpoint_demo()
    sharded_demo()


if __name__ == "__main__":
    main()
