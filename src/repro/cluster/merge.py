"""Merging per-shard state into single cluster-wide answers.

Soundness comes from the mergeability of everything the coordinators keep
(Agarwal et al. 2012; the same property protocol P1 exploits within one
coordinator group): each shard sees the sub-stream of the sites it owns, so
shard estimate maps are counter summaries of disjoint *sub-streams* (not of
disjoint elements — an element seen at sites of several shards has an
estimate on each, and they add), and covariance decomposes over any disjoint
row split, so the merged additive error is at most the sum of the per-shard
bounds.

How each query kind reads a shard and folds ``N`` shards into one answer is
defined once, on the query class (``Query.materials`` / ``Query.combine`` in
:mod:`repro.api.queries`).  This module keeps the counter and message-count
merges and the two entry points of a cluster query:
:func:`shard_query_materials` runs **on the shard** — through the declared
worker command ``_shard_query``, to which the query travels as plain data,
its ``(kind, fields)`` — and :func:`merge_answer` runs on the caller.

A coordinator changes only when a message reaches it, so between two
queries a shard's ``B``, ``BᵀB`` or counter map almost never moves.  With a
query whose kind declares :attr:`~repro.api.queries.Query.coordinator_fields`
the caller sends the ``epoch`` of the part it already holds for that shard
(every such part carries its protocol's ``coordinator_epoch``); a shard at
that same epoch replies without those fields — only the scalars (``items``,
``messages`` and the bound, plus ``epsilon`` and ``Ŵ`` for heavy hitters) —
and the caller completes the reply from its held part as
``{**held, **reply}``.  Answers stay bit-identical,
because the fields left out are exactly the ones no quiet push can change.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..api.queries import Answer, Query, merge_counter_maps
from .worker_protocol import worker_command

__all__ = [
    "merge_answer",
    "merge_counter_maps",
    "merge_message_counts",
    "shard_query_materials",
]


def merge_message_counts(counts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-shard ``message_counts()`` dictionaries key-wise."""
    merged: Dict[str, int] = {}
    for shard_counts in counts:
        for key, value in shard_counts.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def shard_query_materials(tracker: Any, query: Query,
                          held_epoch: Optional[int] = None) -> Dict[str, Any]:
    """Extract the raw per-shard material one query needs (runs on the shard).

    A kind with coordinator fields also reports the shard's ``epoch``; when
    it equals ``held_epoch`` (the epoch of the part the caller holds) the
    coordinator fields are left out.
    """
    protocol = tracker.protocol
    if not query.coordinator_fields:
        return query.materials(protocol)
    epoch = protocol.coordinator_epoch
    if epoch == held_epoch:
        part = query.unchanged_materials(protocol)
    else:
        part = query.materials(protocol)
    part["epoch"] = epoch
    return part


@worker_command
def _shard_query(tracker: Any, kind: str, fields: Dict[str, Any],
                 held_epoch: Optional[int] = None) -> Dict[str, Any]:
    # The query arrives as Query.to_fields() wrote it.
    return shard_query_materials(tracker, Query.from_fields(kind, fields),
                                 held_epoch)


def merge_answer(query: Query, materials: List[Dict[str, Any]], *,
                 missing_shards: Iterable[int] = ()) -> Answer:
    """Fold per-shard material dictionaries into one frozen ``Answer``."""
    return query.combine(materials, missing_shards)
