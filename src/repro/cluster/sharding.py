"""The composed item → shard map under round-robin sites.

A :class:`~repro.cluster.sharded_tracker.ShardedTracker` shards by *site*
(``shard = site mod S``); the routing itself lives in its ``push_batch``.
What is left here is the map that composition gives an unassigned stream
when ``S`` divides ``m``: item ``i`` sits at site ``i mod m``, hence on
shard ``i mod S``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shard_of_rows"]


# Kept verbatim for ``bench/layers.py``, which imports, instruments and times
# it; the facade no longer calls it.  Goes with benchmark round 2 (ROADMAP 4).
def shard_of_rows(start_index: int, count: int, num_shards: int) -> np.ndarray:
    """Round-robin shard index for rows ``start_index .. start_index+count``.

    ``start_index`` is the global (session-lifetime) index of the first row
    of the block; the caller persists it across ``push_batch`` calls and
    checkpoints so the deal continues exactly where it stopped.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if num_shards == 1:
        return np.zeros(count, dtype=np.int64)
    return (np.arange(start_index, start_index + count, dtype=np.int64)
            % num_shards)
