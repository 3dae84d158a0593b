"""``Session``: what a plain tracker and a sharded cluster have in common.

Both facades are one continuous-tracking session over one registry spec:
they carry the spec and its parameters and an
:class:`~repro.api.cache.AnswerCache`, and they answer the typed queries of
:mod:`repro.api.queries` the same way — validate, count, look the answer
up, otherwise collect the per-shard parts and let the query combine them.
A facade supplies :meth:`Session._parts` (one part read from the local
protocol, or ``N`` parts fetched from the shards) and
:attr:`Session.watermark`.  Every part reports its shard's ``items``, so an
answer is cached under exactly the state it read and found under the
watermark naming that state, whatever the interleaving of pushes.

The serving gateway talks to this surface alone on its read side, so it
does not need to know which kind of session it fronts.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY
from .cache import DEFAULT_CACHE_SIZE, AnswerCache
from .queries import Answer, Query
from .registry import DOMAIN_HEAVY_HITTERS, DOMAIN_MATRIX

__all__ = ["Session"]

_PROTOCOL_NOUNS = {DOMAIN_HEAVY_HITTERS: "weighted heavy-hitter",
                   DOMAIN_MATRIX: "matrix-tracking"}


class Session:
    """Shared state and the single read path of both tracker facades.

    Subclasses name five telemetry families (their ``repro_tracker_*`` /
    ``repro_cluster_*`` series) and implement :meth:`_parts`; the two
    ingestion counters, recorded per pushed item, are bound to the spec
    when the session is built.
    """

    #: Counters ``(spec)`` of ingestion calls and of the items they carry.
    _pushes_total: Any = None
    _items_total: Any = None
    #: Counter ``(spec, kind)`` of queries answered through :meth:`query`.
    _queries_total: Any = None
    #: Counter ``(spec)`` / histogram ``(spec)`` fed by :meth:`_timed_save`.
    _checkpoint_bytes_total: Any = None
    _checkpoint_seconds: Any = None

    #: True when queries may be dispatched concurrently with ingestion; the
    #: serving gateway runs reads on their own thread pool only then.
    dispatch_concurrency_safe: bool = False

    def __init__(self, spec: Optional[str], domain: str,
                 params: Optional[Dict[str, Any]], *, label: str,
                 cache_size: int = DEFAULT_CACHE_SIZE):
        self._spec = spec
        self._domain = domain
        self._params = dict(params) if params else {}
        self._metric_spec = label
        self._cache = AnswerCache(cache_size, spec=label)
        self._pushes = self._pushes_total.labels(spec=label)
        self._items = self._items_total.labels(spec=label)

    # ------------------------------------------------------------ properties
    @property
    def spec(self) -> Optional[str]:
        """The registry spec name this session runs."""
        return self._spec

    @property
    def params(self) -> Dict[str, Any]:
        """The spec parameters recorded at creation time."""
        return dict(self._params)

    @property
    def watermark(self) -> Tuple[int, ...]:
        """Stream items per shard: the label an answer read now would carry
        (equal within one session only for identical shard states)."""
        raise NotImplementedError

    @property
    def answer_cache(self) -> AnswerCache:
        """The session's answer cache (hit/miss/eviction introspection)."""
        return self._cache

    # ---------------------------------------------------------------- queries
    def query(self, query: Query, *, partial: bool = False) -> Answer:
        """Answer a typed query at the current instant.

        The ``Answer`` carries the paper's error bound (summed over shards
        on a cluster) and an ``items_processed``/``total_messages``
        snapshot.  A query repeated at an unchanged :attr:`watermark`
        returns the same frozen answer without re-evaluation.

        ``partial=True`` (sharded sessions) opts into graceful degradation:
        shards whose workers have failed are skipped, the live shards'
        parts combine as usual, and ``answer.missing_shards`` names the
        absent ones.  Only when *every* shard is unavailable does the query
        still raise.  Default: any failed shard raises, as a lost shard
        silently missing from an estimate is worse than an error.

        Examples
        --------
        >>> from repro.api import HeavyHitters, Tracker
        >>> tracker = Tracker.create("hh/P1", num_sites=4, epsilon=0.1)
        >>> tracker.push(0, ("cat", 5.0))
        >>> tracker.query(HeavyHitters(phi=0.5)).elements
        ('cat',)
        """
        return self._labelled_query(query, partial)[0]

    def _labelled_query(self, query: Query, partial: bool
                        ) -> Tuple[Answer, Optional[Tuple[int, ...]]]:
        """``(answer, label)``: the answer and the per-shard items it read;
        ``label`` is ``None`` for partial answers, which are never cached
        (their coverage depends on which shards happened to be reachable)."""
        self._check_open()
        if not isinstance(query, Query):
            raise TypeError(
                f"query must be a repro.api Query instance, got "
                f"{type(query).__name__}"
            )
        if query.domain != self._domain:
            raise TypeError(
                f"{type(query).__name__} queries need a "
                f"{_PROTOCOL_NOUNS.get(query.domain, query.domain)} "
                f"protocol; this session runs {self._domain!r} spec "
                f"{self._metric_spec!r}"
            )
        if REGISTRY.enabled:
            self._queries_total.inc(spec=self._metric_spec,
                                    kind=type(query).__name__)
        key = None
        if self._cache.enabled and not partial:
            try:
                key = query.cache_key()
            except TypeError:
                key = None  # unhashable parameters bypass the cache
            if key is not None:
                watermark = self.watermark
                cached = self._cache.get((key, watermark))
                if cached is not None:
                    return cached, watermark
        parts, missing = self._parts(query, partial)
        answer = query.combine(parts, missing)
        if partial:
            return answer, None
        label = tuple(part["items"] for part in parts)
        if key is not None:
            self._cache.put((key, label), answer, label)
        return answer, label

    def _parts(self, query: Query, partial: bool
               ) -> Tuple[List[Dict[str, Any]], Sequence[int]]:
        """``(parts, missing_shards)``: ``query.materials`` of every shard."""
        raise NotImplementedError

    def _check_open(self) -> None:
        """Raise if the session can no longer serve (closed clusters)."""

    # ----------------------------------------------------------- observation
    def liveness(self) -> Dict[str, str]:
        """Per-shard liveness, ``{"0": "ok", ...}``; an in-process session
        is its own single, always-reachable shard."""
        return {"0": "ok"}

    def metrics_snapshot(self) -> List[Dict[str, Any]]:
        """Registry snapshots of every process this session spans."""
        return [REGISTRY.snapshot()]

    @contextmanager
    def _timed_save(self, path: Any) -> Iterator[None]:
        """Record wall time and bytes of the checkpoint written inside."""
        started = perf_counter() if REGISTRY.enabled else None
        yield
        if started is not None:
            self._checkpoint_seconds.observe(perf_counter() - started,
                                             spec=self._metric_spec)
            try:
                self._checkpoint_bytes_total.inc(os.path.getsize(path),
                                                 spec=self._metric_spec)
            except (TypeError, OSError):
                pass  # file-like targets have no on-disk size
