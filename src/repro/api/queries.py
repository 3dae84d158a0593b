"""Typed query/answer objects: one query vocabulary over both domains.

The paper's promise is *continuous* queries — at any instant the coordinator
answers heavy-hitter or covariance queries.  This module gives that promise
one typed surface::

    answer = tracker.query(HeavyHitters(phi=0.05))
    answer = tracker.query(Covariance())
    answer = tracker.query(Norms(x))

Each :class:`Query` is a small frozen dataclass naming what is asked; each
:class:`Answer` is a frozen dataclass carrying

* ``estimate`` — the coordinator's answer,
* ``error_bound`` — the paper's additive guarantee at this instant
  (``ε·Ŵ`` for weighted frequencies, ``ε·F̂`` for covariance/norm queries;
  ``None`` when the protocol offers no bound, e.g. the Appendix-C P4),
* ``items_processed`` / ``total_messages`` — a snapshot of the stream
  position and communication spent when the query was answered.

Every query names its ``domain``; a session refuses a query of the other
domain with a ``TypeError`` naming the query kind and the session's spec.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..heavy_hitters.base import HeavyHitter, select_heavy_hitters
from ..streaming.protocol import DistributedProtocol
from ..utils.linalg import spectral_norm
from ..wire.codec import PLAIN_DTYPES
from .registry import DOMAIN_HEAVY_HITTERS, DOMAIN_MATRIX

__all__ = [
    "Query",
    "Answer",
    "HeavyHitters",
    "HeavyHittersAnswer",
    "Frequency",
    "FrequencyAnswer",
    "TotalWeight",
    "TotalWeightAnswer",
    "Covariance",
    "CovarianceAnswer",
    "Norms",
    "NormsAnswer",
    "SketchMatrix",
    "SketchMatrixAnswer",
    "FrobeniusSquared",
    "FrobeniusSquaredAnswer",
    "ApproximationError",
    "merge_counter_maps",
]


def _jsonify(value: Any, keep_arrays: bool = False) -> Any:
    """Convert an answer field into JSON-serialisable plain data.

    NumPy scalars/arrays become Python numbers/nested lists, dataclasses
    (``HeavyHitter``, nested queries) become dictionaries, tuples become
    lists; anything else non-primitive falls back to ``repr`` so arbitrary
    element labels never break serving-path serialisation.
    ``keep_arrays`` leaves arrays of a plain-data dtype
    (:data:`~repro.wire.codec.PLAIN_DTYPES`) as they are.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        if keep_arrays and value.dtype.str in PLAIN_DTYPES:
            return value
        return value.tolist()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: _jsonify(getattr(value, name), keep_arrays)
                for name in (f.name for f in dataclasses.fields(value))}
    if isinstance(value, dict):
        return {str(key): _jsonify(item, keep_arrays)
                for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonify(item, keep_arrays) for item in value]
    return repr(value)


@dataclass(frozen=True)
class Answer:
    """Base of all answers: estimate, error bound, and a session snapshot.

    ``missing_shards`` is non-empty only for degraded cluster answers
    (``ShardedTracker.query(..., partial=True)`` with dead shards): the
    estimate then covers the live shards only, and the named shards'
    sub-streams are absent from it.  Plain trackers and healthy clusters
    always answer with ``missing_shards == ()``.
    """

    query: "Query"
    estimate: Any
    error_bound: Optional[float]
    items_processed: int
    total_messages: int
    missing_shards: Tuple[int, ...] = field(default=(), kw_only=True)

    @property
    def is_partial(self) -> bool:
        """True when shards are missing from this estimate."""
        return bool(self.missing_shards)

    def document(self) -> Dict[str, Any]:
        """The :meth:`to_dict` tree with its numeric arrays left as arrays.

        The one document the serving gateway renders, as JSON (which turns
        the arrays into nested lists) or as a wire frame (which ships them
        verbatim).  The arrays are this answer's own: read, never write.
        """
        payload: Dict[str, Any] = {
            "answer": type(self).__name__,
            "query": {"type": type(self.query).__name__,
                      **{f.name: _jsonify(getattr(self.query, f.name), True)
                         for f in dataclasses.fields(self.query)}},
        }
        for field_info in dataclasses.fields(self):
            if field_info.name == "query":
                continue
            payload[field_info.name] = _jsonify(
                getattr(self, field_info.name), True)
        return payload

    def to_dict(self) -> Dict[str, Any]:
        """The answer as JSON-safe plain data (for serving-style consumers).

        The dictionary names the answer and query types, flattens the query
        parameters, and carries every answer field through :func:`_jsonify`
        (NumPy arrays become nested lists, heavy-hitter tuples become lists
        of dictionaries): :meth:`document` with its arrays as lists.
        """
        return _jsonify(self.document())

    def to_json(self, **dumps_kwargs: Any) -> str:
        """The :meth:`to_dict` payload serialized with :func:`json.dumps`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Answer":
        """Re-hydrate a :meth:`to_dict` payload into a typed ``Answer``.

        The inverse the serving path needs: gateway clients receive answers
        as JSON and reconstruct the frozen dataclasses — the answer and
        query classes are resolved by the names the payload carries, tuple
        fields (heavy hitters, ``missing_shards``) become tuples again and
        matrix estimates/query directions become ``float64`` arrays.  Raises
        ``ValueError`` on payloads that do not name a known answer/query
        type (a malformed or foreign document, not an encoding bug).
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"Answer.from_dict needs a to_dict() payload, got "
                f"{type(payload).__name__}"
            )
        answer_cls = _ANSWER_TYPES.get(payload.get("answer"))
        if answer_cls is None:
            raise ValueError(
                f"unknown answer type {payload.get('answer')!r}; expected "
                f"one of {sorted(_ANSWER_TYPES)}"
            )
        query_payload = payload.get("query")
        if not isinstance(query_payload, dict):
            raise ValueError("answer payload carries no query dictionary")
        query_cls = _QUERY_TYPES.get(query_payload.get("type"))
        if query_cls is None:
            raise ValueError(
                f"unknown query type {query_payload.get('type')!r}; expected "
                f"one of {sorted(_QUERY_TYPES)}"
            )
        query_kwargs = {
            name: value for name, value in query_payload.items()
            if name != "type"
        }
        if query_cls is Norms and query_kwargs.get("directions") is not None:
            query_kwargs["directions"] = np.asarray(
                query_kwargs["directions"], dtype=np.float64)
        kwargs: Dict[str, Any] = {"query": query_cls(**query_kwargs)}
        for field_info in dataclasses.fields(answer_cls):
            if field_info.name == "query":
                continue
            value = payload.get(field_info.name)
            if field_info.name == "estimate":
                value = _rehydrate_estimate(answer_cls, value)
            elif field_info.name == "missing_shards":
                value = tuple(int(shard) for shard in (value or ()))
            kwargs[field_info.name] = value
        return answer_cls(**kwargs)


def _canonical_param(value: Any) -> Hashable:
    """One query parameter as a hashable canonical form.

    Arrays (the ``Norms`` directions, which make the dataclass ``eq=False``)
    canonicalize by shape/dtype/contents so two queries asking for the same
    directions share one cache slot; unhashable leftovers raise
    ``TypeError``, which callers treat as "not cacheable".
    """
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return ("ndarray", contiguous.shape, contiguous.dtype.str,
                contiguous.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_param(item) for item in value)
    hash(value)  # raises TypeError for unhashable element labels
    return value


@dataclass(frozen=True)
class Query:
    """Base of all typed queries.

    A query kind is defined by exactly three things, all on its class:
    ``domain`` (the registry domain it applies to), :meth:`materials` (what
    it reads from one protocol — runs on the shard, and the dictionary
    crosses the socket to remote workers, so its keys and value types are
    wire format) and :meth:`combine` (how ``N`` such dictionaries become
    the frozen :class:`Answer`).  A plain tracker is the one-part case of
    the same two steps, which is what makes it identical to a one-shard
    cluster by construction rather than by test.

    ``coordinator_fields`` names the keys of :meth:`materials` read from
    the coordinator's state alone (a counter map, ``B``, ``BᵀB`` or norms
    of ``B``).  A coordinator changes only when a message reaches it, so
    while its protocol's ``coordinator_epoch`` stands still these fields
    do too: a cluster shard then leaves them out of its reply
    (:meth:`unchanged_materials`) and the caller keeps the ones it holds.
    Every other key is a scalar or site-derived (``ApproximationError``'s
    ``missing`` is the sites' residuals) and is always sent.
    """

    #: Registry domain (``"hh"`` / ``"matrix"``) whose protocols answer this.
    domain: ClassVar[str] = ""
    #: Keys of :meth:`materials` that only a message to the coordinator
    #: can change; a kind that declares any carries nothing else beyond
    #: its domain's shared materials.
    coordinator_fields: ClassVar[Tuple[str, ...]] = ()

    def materials(self, protocol: DistributedProtocol) -> Dict[str, Any]:
        """Read what this query needs from ``protocol`` right now."""
        raise NotImplementedError

    def combine(self, parts: Sequence[Dict[str, Any]],
                missing_shards: Iterable[int] = ()) -> Answer:
        """Fold per-shard :meth:`materials` into one frozen ``Answer``.

        The combined ``error_bound`` is the *sum* of the per-shard bounds
        (``Σ_s ε·Ŵ_s`` / ``Σ_s ε·F̂_s``) and the ``items``/``messages``
        snapshot aggregates all parts.  A single part passes through
        without arithmetic or copies.  ``missing_shards`` flags a degraded
        merge: ``parts`` then holds the live shards only.
        """
        raise NotImplementedError

    def unchanged_materials(self, protocol: DistributedProtocol
                            ) -> Dict[str, Any]:
        """:meth:`materials` without the :attr:`coordinator_fields`: the
        reply of a shard whose caller holds them at the current epoch.
        Only asked of kinds that declare coordinator fields."""
        return _SHARED_MATERIALS[self.domain](protocol)

    def answer(self, protocol: DistributedProtocol) -> Answer:
        """Evaluate this query against ``protocol`` right now."""
        return self.combine([self.materials(protocol)])

    def to_fields(self) -> Tuple[str, Dict[str, Any]]:
        """``(kind, fields)``: the class name and the dataclass fields, the
        plain form a query travels in to shard workers."""
        return type(self).__name__, {
            field_info.name: getattr(self, field_info.name)
            for field_info in dataclasses.fields(self)}

    @staticmethod
    def from_fields(kind: Any, fields: Any) -> "Query":
        """The query :meth:`to_fields` described, its kind looked up in the
        closed table of query classes (any other is a ``ValueError``)."""
        query_cls = _QUERY_TYPES.get(kind) if isinstance(kind, str) else None
        if query_cls is None or not isinstance(fields, dict):
            raise ValueError(f"unknown query kind {kind!r:.80}")
        return query_cls(**fields)

    def cache_key(self) -> Hashable:
        """This query's canonical identity for answer caching/ETags.

        The key is the query kind plus every parameter in canonical form
        (``Norms`` directions canonicalize by shape/dtype/bytes, so the
        ``eq=False`` dataclasses still key correctly).  Raises ``TypeError``
        for queries whose parameters cannot be hashed (e.g. a ``Frequency``
        on an unhashable element label) — such queries bypass the cache.
        """
        return (type(self).__name__,) + tuple(
            (field_info.name, _canonical_param(getattr(self, field_info.name)))
            for field_info in dataclasses.fields(self)
        )


def merge_counter_maps(maps: Iterable[Dict[Hashable, float]]) -> Dict[Hashable, float]:
    """Counter-merge several estimate maps by summing per element.

    Shards own sites, not elements, so the maps overlap wherever an element
    was seen at sites of several shards; each map summarises a disjoint
    sub-stream, so overlapping keys merge correctly by addition.
    """
    merged: Dict[Hashable, float] = {}
    for counter_map in maps:
        for element, weight in counter_map.items():
            merged[element] = merged.get(element, 0.0) + weight
    return merged


def _total(parts: Sequence[Dict[str, Any]], key: str) -> Any:
    """``key`` summed over ``parts``; a single part's value is returned as is."""
    if len(parts) == 1:
        return parts[0][key]
    return sum(part[key] for part in parts)


def _shared_fields(query: Query, parts: Sequence[Dict[str, Any]],
                   missing_shards: Iterable[int]) -> Dict[str, Any]:
    """The answer fields every kind combines the same way."""
    if not parts:
        raise ValueError("need materials from at least one shard")
    if len(parts) > 1 and any(part["bound"] is None for part in parts):
        bound = None  # one shard without a guarantee voids the summed one
    else:
        bound = _total(parts, "bound")
    return {
        "query": query,
        "error_bound": bound,
        "items_processed": _total(parts, "items"),
        "total_messages": _total(parts, "messages"),
        "missing_shards": tuple(missing_shards),
    }


def _weight_materials(protocol: DistributedProtocol,
                      **payload: Any) -> Dict[str, Any]:
    """Heavy-hitter materials: accounting, ``Ŵ``, the ``ε·Ŵ`` bound (0 for
    the exact baseline), then the kind's own ``payload``."""
    return {
        "items": protocol.items_processed,
        "messages": protocol.total_messages,
        "epsilon": protocol.epsilon,
        "total": protocol.estimated_total_weight(),
        "bound": protocol.estimate_error_bound(),
        **payload,
    }


def _matrix_materials(protocol: DistributedProtocol,
                      **payload: Any) -> Dict[str, Any]:
    """Matrix materials: accounting and the covariance bound, then ``payload``.

    The bound is ``ε·F̂`` for the distributed protocols, tighter for the
    centralized baselines, ``None`` for the Appendix-C P4 — see
    :meth:`~repro.matrix_tracking.base.MatrixTrackingProtocol.covariance_error_bound`.
    """
    return {
        "items": protocol.items_processed,
        "messages": protocol.total_messages,
        "bound": protocol.covariance_error_bound(),
        **payload,
    }


#: The materials every kind of a domain starts from (see
#: :meth:`Query.unchanged_materials`).
_SHARED_MATERIALS = {DOMAIN_HEAVY_HITTERS: _weight_materials,
                     DOMAIN_MATRIX: _matrix_materials}


# ------------------------------------------------------------- heavy hitters
# Each shard owns a disjoint set of sites, so its estimate map is a counter
# summary of *its* sub-stream: summing maps, weights and totals is an exact
# counter merge (Agarwal et al. 2012), whichever shards an element reached.
@dataclass(frozen=True)
class HeavyHittersAnswer(Answer):
    """Answer to :class:`HeavyHitters`; ``estimate`` is the hitter tuple."""

    estimated_total_weight: float = 0.0

    @property
    def hitters(self) -> Tuple[HeavyHitter, ...]:
        """The reported heavy hitters, sorted by decreasing weight."""
        return self.estimate

    @property
    def elements(self) -> Tuple[Hashable, ...]:
        """Only the element labels of the reported hitters."""
        return tuple(hitter.element for hitter in self.estimate)


@dataclass(frozen=True)
class HeavyHitters(Query):
    """All elements of relative weight ≥ φ (Lemma 1 reporting rule)."""

    domain: ClassVar[str] = DOMAIN_HEAVY_HITTERS
    coordinator_fields: ClassVar[Tuple[str, ...]] = ("estimates",)
    phi: float = 0.05

    def materials(self, protocol: DistributedProtocol) -> Dict[str, Any]:
        return _weight_materials(protocol, estimates=protocol.estimates())

    def combine(self, parts: Sequence[Dict[str, Any]],
                missing_shards: Iterable[int] = ()) -> HeavyHittersAnswer:
        fields = _shared_fields(self, parts, missing_shards)
        if len(parts) == 1:
            estimates = parts[0]["estimates"]
        else:
            estimates = merge_counter_maps(part["estimates"] for part in parts)
        total = _total(parts, "total")
        return HeavyHittersAnswer(
            estimate=tuple(select_heavy_hitters(
                estimates, total, parts[0]["epsilon"], self.phi)),
            estimated_total_weight=total,
            **fields,
        )


@dataclass(frozen=True)
class FrequencyAnswer(Answer):
    """Answer to :class:`Frequency`; ``estimate`` is the weight ``Ŵ_e``."""


@dataclass(frozen=True)
class Frequency(Query):
    """The estimated total weight ``Ŵ_e`` of one element."""

    domain: ClassVar[str] = DOMAIN_HEAVY_HITTERS
    element: Hashable = None

    def materials(self, protocol: DistributedProtocol) -> Dict[str, Any]:
        return _weight_materials(protocol,
                                 frequency=protocol.estimate(self.element))

    def combine(self, parts: Sequence[Dict[str, Any]],
                missing_shards: Iterable[int] = ()) -> FrequencyAnswer:
        return FrequencyAnswer(
            estimate=_total(parts, "frequency"),
            **_shared_fields(self, parts, missing_shards))


@dataclass(frozen=True)
class TotalWeightAnswer(Answer):
    """Answer to :class:`TotalWeight`; ``estimate`` is ``Ŵ``."""


@dataclass(frozen=True)
class TotalWeight(Query):
    """The estimated total stream weight ``Ŵ``."""

    domain: ClassVar[str] = DOMAIN_HEAVY_HITTERS

    def materials(self, protocol: DistributedProtocol) -> Dict[str, Any]:
        return _weight_materials(protocol)

    def combine(self, parts: Sequence[Dict[str, Any]],
                missing_shards: Iterable[int] = ()) -> TotalWeightAnswer:
        return TotalWeightAnswer(
            estimate=_total(parts, "total"),
            **_shared_fields(self, parts, missing_shards))


# ------------------------------------------------------------ matrix queries
# Covariance decomposes over any disjoint row split (``AᵀA = Σ_s Aᵀ_s A_s``),
# so summed shard covariances / stacked shard sketches answer the merged
# query (Frequent Directions' stack-and-compact mergeability gives the same
# sum bound when the stacked sketch is re-compacted).
@dataclass(frozen=True, eq=False)
class CovarianceAnswer(Answer):
    """Answer to :class:`Covariance`; ``estimate`` is the ``d×d`` matrix."""

    @property
    def matrix(self) -> np.ndarray:
        """The coordinator's covariance approximation ``BᵀB``."""
        return self.estimate


@dataclass(frozen=True)
class Covariance(Query):
    """The coordinator's covariance approximation ``BᵀB``.

    The guarantee is spectral: ``‖AᵀA − BᵀB‖₂ ≤ error_bound``.
    """

    domain: ClassVar[str] = DOMAIN_MATRIX
    coordinator_fields: ClassVar[Tuple[str, ...]] = ("covariance",)

    def materials(self, protocol: DistributedProtocol) -> Dict[str, Any]:
        return _matrix_materials(protocol, covariance=protocol.covariance())

    def combine(self, parts: Sequence[Dict[str, Any]],
                missing_shards: Iterable[int] = ()) -> CovarianceAnswer:
        return CovarianceAnswer(
            estimate=_total(parts, "covariance"),
            **_shared_fields(self, parts, missing_shards))


@dataclass(frozen=True, eq=False)
class NormsAnswer(Answer):
    """Answer to :class:`Norms`; ``estimate`` is ``‖Bx‖²`` per direction."""


@dataclass(frozen=True, eq=False)
class Norms(Query):
    """Squared norms ``‖Bx‖²`` along one direction (1-d) or many (2-d rows).

    Satisfies ``|‖Ax‖² − estimate| ≤ error_bound`` for unit ``x``.
    """

    domain: ClassVar[str] = DOMAIN_MATRIX
    coordinator_fields: ClassVar[Tuple[str, ...]] = ("norms",)
    directions: np.ndarray = field(default=None)

    def materials(self, protocol: DistributedProtocol) -> Dict[str, Any]:
        directions = np.asarray(self.directions, dtype=np.float64)
        if directions.ndim == 1:
            norms: Any = protocol.squared_norm_along(directions)
        elif directions.ndim == 2:
            product = protocol.sketch_matrix() @ directions.T
            if product.size == 0:
                norms = np.zeros(directions.shape[0])
            else:
                norms = np.einsum("ij,ij->j", product, product)
        else:
            raise ValueError(
                f"directions must be 1-d or 2-d, got shape {directions.shape}"
            )
        return _matrix_materials(protocol, norms=norms)

    def combine(self, parts: Sequence[Dict[str, Any]],
                missing_shards: Iterable[int] = ()) -> NormsAnswer:
        return NormsAnswer(
            estimate=_total(parts, "norms"),
            **_shared_fields(self, parts, missing_shards))


@dataclass(frozen=True, eq=False)
class SketchMatrixAnswer(Answer):
    """Answer to :class:`SketchMatrix`; ``estimate`` is the sketch ``B``."""


@dataclass(frozen=True)
class SketchMatrix(Query):
    """The coordinator's current approximation matrix ``B`` (rows × d)."""

    domain: ClassVar[str] = DOMAIN_MATRIX
    coordinator_fields: ClassVar[Tuple[str, ...]] = ("sketch",)

    def materials(self, protocol: DistributedProtocol) -> Dict[str, Any]:
        return _matrix_materials(protocol, sketch=protocol.sketch_matrix())

    def combine(self, parts: Sequence[Dict[str, Any]],
                missing_shards: Iterable[int] = ()) -> SketchMatrixAnswer:
        blocks = [part["sketch"] for part in parts]
        return SketchMatrixAnswer(
            estimate=blocks[0] if len(blocks) == 1 else np.vstack(blocks),
            **_shared_fields(self, parts, missing_shards))


@dataclass(frozen=True)
class FrobeniusSquaredAnswer(Answer):
    """Answer to :class:`FrobeniusSquared`; ``estimate`` is ``F̂``."""


@dataclass(frozen=True)
class FrobeniusSquared(Query):
    """The coordinator's estimate ``F̂`` of ``‖A‖²_F``."""

    domain: ClassVar[str] = DOMAIN_MATRIX

    def materials(self, protocol: DistributedProtocol) -> Dict[str, Any]:
        return _matrix_materials(
            protocol, fhat=protocol.estimated_squared_frobenius())

    def combine(self, parts: Sequence[Dict[str, Any]],
                missing_shards: Iterable[int] = ()) -> FrobeniusSquaredAnswer:
        return FrobeniusSquaredAnswer(
            estimate=_total(parts, "fhat"),
            **_shared_fields(self, parts, missing_shards))


@dataclass(frozen=True)
class ApproximationError(Query):
    """The paper's ``err`` metric ``‖AᵀA − BᵀB‖₂ / ‖A‖²_F`` right now.

    Served from protocol state alone: a protocol whose state proves the
    missing mass ``AᵀA − BᵀB`` and ``‖A‖²_F`` exactly (matrix/P2 without a
    coordinator sketch) answers the measured error, and its
    ``error_bound`` is the guarantee normalised by that ``‖A‖²_F``.  Every
    other protocol answers ``estimate is None`` — so does a merge in which
    any shard does.
    """

    domain: ClassVar[str] = DOMAIN_MATRIX

    def materials(self, protocol: DistributedProtocol) -> Dict[str, Any]:
        missing, f2 = protocol.missing_mass() or (None, None)
        return _matrix_materials(protocol, missing=missing, f2=f2)

    def combine(self, parts: Sequence[Dict[str, Any]],
                missing_shards: Iterable[int] = ()) -> Answer:
        fields = _shared_fields(self, parts, missing_shards)
        bound = fields.pop("error_bound")
        if any(part["missing"] is None for part in parts):
            return Answer(estimate=None, error_bound=None, **fields)
        f2 = _total(parts, "f2")
        estimate = 0.0
        normalised: Optional[float] = None
        if f2 > 0.0:
            estimate = spectral_norm(_total(parts, "missing")) / f2
            if bound is not None:
                normalised = bound / f2
        return Answer(estimate=estimate, error_bound=normalised, **fields)


# ------------------------------------------------------- from_dict machinery
# Name → class maps for Answer.from_dict; plain ``Answer`` is included because
# ApproximationError answers with the base class directly.
_ANSWER_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        Answer,
        HeavyHittersAnswer,
        FrequencyAnswer,
        TotalWeightAnswer,
        CovarianceAnswer,
        NormsAnswer,
        SketchMatrixAnswer,
        FrobeniusSquaredAnswer,
    )
}

_QUERY_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        HeavyHitters,
        Frequency,
        TotalWeight,
        Covariance,
        Norms,
        SketchMatrix,
        FrobeniusSquared,
        ApproximationError,
    )
}

# Answer classes whose estimate is a matrix/vector (nested lists in JSON).
_ARRAY_ESTIMATES = (CovarianceAnswer, SketchMatrixAnswer)


def _rehydrate_estimate(answer_cls: type, value: Any) -> Any:
    """Undo ``_jsonify`` on an answer's ``estimate`` field."""
    if value is None:
        return None
    if answer_cls is HeavyHittersAnswer:
        return tuple(
            HeavyHitter(
                element=item["element"],
                estimated_weight=item["estimated_weight"],
                relative_weight=item["relative_weight"],
            )
            for item in value
        )
    if issubclass(answer_cls, _ARRAY_ESTIMATES):
        return np.asarray(value, dtype=np.float64)
    if answer_cls is NormsAnswer and isinstance(value, list):
        return np.asarray(value, dtype=np.float64)
    # Scalar estimates (frequency, total weight, Frobenius, error metric)
    # pass through untouched so int/float fidelity is preserved.
    return value
