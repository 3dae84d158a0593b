"""Answer caching for the query hot path, keyed by the state each answer read.

The paper's whole premise is that a small mergeable summary answers
queries cheaply — and between two ingest instalments the summary does not
move at all, so neither does any answer computed from it.  This module
implements that memoize-until-invalidated discipline as a small LRU:

* the **key** is the query's canonical identity
  (:meth:`~repro.api.queries.Query.cache_key`) paired with a **label**: the
  per-shard item counts of the state the answer was computed from.  A
  session stores an answer under the label its own parts report and looks
  it up under its current :attr:`~repro.api.session.Session.watermark`,
  so any ingestion invalidates every previously cached answer *by
  construction* — entries are never mutated, they stop being addressable,
  and the first answer stored under a newer label drops them (an answer
  computed from an older state is not stored at all);
* the **value** is the *same frozen* :class:`~repro.api.queries.Answer`
  a fresh evaluation would return — bit-identical estimates, bounds and
  accounting snapshots, because nothing between two ingests changes them;
* ``max_entries`` bounds memory (least-recently-used eviction); there is no
  time-based expiry, because the label alone is always correct.

Beside the answers the cache keeps, for each query key, the last
**per-shard parts** a sharded session combined (see
:meth:`AnswerCache.store_parts`).  A push moves exactly one shard, so after
it a query needs a fresh part from that shard alone: a stored part whose
``items`` equals the shard's watermark entry was read from the shard's
current state (each shard applies its work first in, first out), and is
reused as it is.  Parts survive the generation drop that retires answers,
and are bounded by the same ``max_entries``.

A cache built with ``max_entries=0`` is disabled: every method returns
immediately without taking the lock, so the hot path costs one attribute
check and nothing else.

The cache is thread-safe (one lock around the ordered map) because the
serving gateway hits it from a pool of reader threads while the writer
thread ingests.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY

__all__ = ["AnswerCache", "DEFAULT_CACHE_SIZE"]

#: Default LRU capacity of a session's answer cache.  Sized for serving
#: workloads (dashboards rotate through a handful of query shapes); one
#: entry is one frozen ``Answer``, so memory stays in sketch territory.
DEFAULT_CACHE_SIZE = 128

_HITS = REGISTRY.counter(
    "repro_cache_hits_total",
    "Answer-cache hits (query served without re-evaluation)",
    labels=("spec",))
_MISSES = REGISTRY.counter(
    "repro_cache_misses_total",
    "Answer-cache misses (query evaluated and cached)", labels=("spec",))
_EVICTIONS = REGISTRY.counter(
    "repro_cache_evictions_total",
    "Answer-cache LRU evictions", labels=("spec",))
_PART_REUSES = REGISTRY.counter(
    "repro_cache_part_reuses_total",
    "Shard parts reused by a cache miss without calling their shard",
    labels=("spec",))


class AnswerCache:
    """A thread-safe LRU of frozen answers keyed by (query, label).

    Parameters
    ----------
    max_entries:
        LRU capacity; ``0`` disables the cache entirely (both ``get`` and
        ``put`` become constant-time no-ops).
    spec:
        Registry spec label for the ``repro_cache_*`` metric series.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE,
                 spec: str = "unknown"):
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = int(max_entries)
        self._spec = spec
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: The newest generation any entry was stored under.
        self._generation: Tuple = ()
        #: Query key -> the newest part read from each shard for it.
        self._parts: "OrderedDict[Hashable, List[Dict[str, Any]]]" = \
            OrderedDict()
        #: Local counters mirrored into the ``repro_cache_*`` metric series.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.part_reuses = 0

    @property
    def enabled(self) -> bool:
        """True when this cache stores anything at all."""
        return self.max_entries > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The cached answer under ``key``, or ``None``.

        A hit refreshes the entry's LRU position.
        """
        if self.max_entries == 0:
            return None
        with self._lock:
            answer = self._entries.get(key)
            if answer is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if REGISTRY.enabled:
            if answer is None:
                _MISSES.inc(spec=self._spec)
            else:
                _HITS.inc(spec=self._spec)
        return answer

    def put(self, key: Hashable, answer: Any, generation: Tuple = ()) -> None:
        """Store ``answer``, computed at ``generation``, under ``key``.

        Generations are the answers' labels — per-shard item counts, each
        only growing — compared lexicographically: a label below one already
        seen is behind it on some shard, so no watermark names it again.  A
        put under a newer generation than any seen drops every entry first:
        keys carry their generation, so no later lookup can reach those
        entries.  A put under an older generation stores nothing (its answer
        is already unreachable).  Over capacity, LRU entries go.
        """
        if self.max_entries == 0:
            return
        evicted = 0
        with self._lock:
            if generation < self._generation:
                return
            if generation > self._generation:
                self._entries.clear()
                self._generation = generation
            self._entries[key] = answer
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted and REGISTRY.enabled:
            _EVICTIONS.inc(evicted, spec=self._spec)

    def current_parts(self, key: Hashable, watermark: Sequence[int]
                      ) -> List[Optional[Dict[str, Any]]]:
        """One slot per shard: the part stored under ``key`` when its
        ``items`` equals that shard's ``watermark`` entry, otherwise
        ``None`` (the shard must be asked again)."""
        stored = None
        if self.max_entries:
            with self._lock:
                stored = self._parts.get(key)
                if stored is not None:
                    self._parts.move_to_end(key)
        if stored is None:
            return [None] * len(watermark)
        return [part if part["items"] == items else None
                for part, items in zip(stored, watermark)]

    def store_parts(self, key: Hashable, parts: Sequence[Dict[str, Any]],
                    reused: int = 0) -> None:
        """Keep ``parts`` (one per shard) as the newest read for ``key``.

        A stored part is replaced only by one whose ``items`` is at least
        as large, so a reader that fetched an older state than a racing
        reader cannot put it back.  ``reused`` counts the parts of this
        answer that came from :meth:`current_parts` without a call.
        """
        if self.max_entries == 0:
            return
        with self._lock:
            stored = self._parts.get(key)
            if stored is None:
                stored = list(parts)
            else:
                stored = [new if new["items"] >= old["items"] else old
                          for old, new in zip(stored, parts)]
            self._parts[key] = stored
            self._parts.move_to_end(key)
            while len(self._parts) > self.max_entries:
                self._parts.popitem(last=False)
            self.part_reuses += reused
        if reused and REGISTRY.enabled:
            _PART_REUSES.inc(reused, spec=self._spec)

    def clear(self) -> None:
        """Drop every entry and every stored part (counters keep their
        totals)."""
        with self._lock:
            self._entries.clear()
            self._parts.clear()

    # Trackers must stay picklable (tests pickle whole sessions); a cache
    # pickles as its configuration only — entries and counters are
    # process-local serving state, and the lock cannot cross process
    # boundaries anyway.
    def __getstate__(self) -> dict:
        return {"max_entries": self.max_entries, "spec": self._spec}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["max_entries"], state["spec"])
