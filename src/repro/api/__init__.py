"""``repro.api`` — the unified session API over both problem domains.

One front door over the protocol zoo:

* :mod:`repro.api.registry` — string-keyed protocol specs (``"hh/P3"``,
  ``"matrix/P2"``, baselines and variants) with declared parameter schemas;
  :func:`create` resolves a spec name plus keyword parameters into a
  validated protocol instance.
* :mod:`repro.api.queries` — typed query objects (:class:`HeavyHitters`,
  :class:`Covariance`, :class:`Norms`, …) answered with frozen
  :class:`Answer` dataclasses carrying the estimate, the paper's error bound
  and a message/items snapshot.
* :mod:`repro.api.session` — :class:`Session`, the base both tracker
  facades share: spec/params, the ingest watermark, the answer cache and
  the one ``query()`` read path.
* :mod:`repro.api.tracker` — the :class:`Tracker` session facade: owns a
  protocol plus a :class:`~repro.streaming.runner.StreamingEngine`, exposes
  ``push``/``push_batch``/``run``, the uniform ``query`` surface and
  ``stats``.
* :mod:`repro.api.state` — versioned checkpoint/restore:
  ``tracker.save(path)`` / ``Tracker.load(path)`` resume bit-identically.
* :mod:`repro.cluster` (re-exported here) — sharded multi-tracker execution:
  :class:`ShardedTracker` fans ingestion across ``N`` shards through a
  registered engine backend (``serial``/``thread``/``process``) and answers
  the same typed queries by merging per-shard state.

Everything here is re-exported from the top-level :mod:`repro` package.
"""

from .queries import (
    Answer,
    ApproximationError,
    Covariance,
    CovarianceAnswer,
    Frequency,
    FrequencyAnswer,
    FrobeniusSquared,
    FrobeniusSquaredAnswer,
    HeavyHitters,
    HeavyHittersAnswer,
    Norms,
    NormsAnswer,
    Query,
    SketchMatrix,
    SketchMatrixAnswer,
    TotalWeight,
    TotalWeightAnswer,
)
from .registry import (
    ParamSpec,
    ProtocolSpec,
    available_specs,
    create,
    get_spec,
    registry_rows,
)
from .session import Session
from .state import (
    CHECKPOINT_VERSION,
    CheckpointError,
    load_protocol,
    load_tracker,
    save_protocol,
    save_tracker,
)
from .tracker import Tracker, TrackerStats

# The cluster layer sits above the session API; importing it last keeps the
# api -> cluster -> api.tracker import chain acyclic (tracker is loaded by
# the time the cluster package resolves it).
from ..cluster import (  # noqa: E402  (deliberate late import, see above)
    BackendSpec,
    ShardedTracker,
    ShardedTrackerStats,
    WorkerServer,
    available_backends,
    backend_registry_rows,
    create_backend,
    get_backend_spec,
)

__all__ = [
    # registry
    "ParamSpec",
    "ProtocolSpec",
    "available_specs",
    "create",
    "get_spec",
    "registry_rows",
    # queries / answers
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
    # tracker sessions
    "Session",
    "Tracker",
    "TrackerStats",
    # sharded execution (repro.cluster)
    "BackendSpec",
    "ShardedTracker",
    "ShardedTrackerStats",
    "WorkerServer",
    "available_backends",
    "backend_registry_rows",
    "create_backend",
    "get_backend_spec",
    # checkpointing
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "save_tracker",
    "load_tracker",
    "save_protocol",
    "load_protocol",
]
