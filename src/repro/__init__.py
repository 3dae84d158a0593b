"""repro — Continuous Matrix Approximation on Distributed Data (VLDB 2014).

A complete reproduction of Ghashami, Phillips & Li, "Continuous Matrix
Approximation on Distributed Data": the four distributed weighted
heavy-hitter protocols (Section 4), the three distributed matrix-tracking
protocols plus the appendix-C negative result (Section 5 / Appendix C), the
sketching substrates they build on (Misra–Gries, SpaceSaving, Frequent
Directions, priority sampling), a simulated multi-site streaming
substrate with exact message accounting, and the full Section 6 experiment
suite — all behind the unified :mod:`repro.api` session surface.

Quickstart
----------
>>> import repro
>>> from repro.data import make_pamap_like
>>> dataset = make_pamap_like(num_rows=2_000)
>>> tracker = repro.Tracker.create("matrix/P2", num_sites=10,
...                                dimension=dataset.dimension, epsilon=0.1)
>>> _ = tracker.run(dataset.rows)
>>> answer = tracker.query(repro.Covariance())
>>> answer.error_bound is not None
True

Protocols resolve by registry spec name (``repro.create("hh/P3", ...)``);
sessions checkpoint with ``tracker.save(path)`` / ``repro.Tracker.load``.
"""

from .api import (
    Answer,
    ApproximationError,
    Covariance,
    Frequency,
    FrobeniusSquared,
    HeavyHitters,
    Norms,
    ProtocolSpec,
    Query,
    ShardedTracker,
    ShardedTrackerStats,
    WorkerServer,
    SketchMatrix,
    TotalWeight,
    Tracker,
    TrackerStats,
    available_backends,
    available_specs,
    create,
    get_spec,
)
from .gateway import Gateway, GatewayClient, GatewayError
from .heavy_hitters import (
    BatchedMisraGriesProtocol,
    ExactForwardingProtocol,
    HeavyHitter,
    PrioritySamplingProtocol,
    RandomizedReportingProtocol,
    ThresholdedUpdatesProtocol,
    WeightedHeavyHitterProtocol,
    WithReplacementSamplingProtocol,
)
from .matrix_tracking import (
    BatchedFrequentDirectionsProtocol,
    CentralizedFDBaseline,
    CentralizedSVDBaseline,
    DeterministicDirectionProtocol,
    MatrixPrioritySamplingProtocol,
    MatrixTrackingProtocol,
    SingularDirectionUpdateProtocol,
    WithReplacementMatrixSamplingProtocol,
)
from .sketch import (
    ExactFrequencyCounter,
    ExactMatrix,
    FrequentDirections,
    WeightedMisraGries,
    WeightedSpaceSaving,
)
from .streaming import (
    MatrixRow,
    Network,
    RoundRobinPartitioner,
    UniformRandomPartitioner,
    WeightedItem,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # unified session API (repro.api)
    "Answer",
    "ApproximationError",
    "Covariance",
    "Frequency",
    "FrobeniusSquared",
    "HeavyHitters",
    "Norms",
    "ProtocolSpec",
    "Query",
    "ShardedTracker",
    "ShardedTrackerStats",
    "WorkerServer",
    "SketchMatrix",
    "TotalWeight",
    "Tracker",
    "TrackerStats",
    "available_backends",
    "available_specs",
    "create",
    "get_spec",
    # serving gateway
    "Gateway",
    "GatewayClient",
    "GatewayError",
    # heavy hitters
    "BatchedMisraGriesProtocol",
    "ExactForwardingProtocol",
    "HeavyHitter",
    "PrioritySamplingProtocol",
    "RandomizedReportingProtocol",
    "ThresholdedUpdatesProtocol",
    "WeightedHeavyHitterProtocol",
    "WithReplacementSamplingProtocol",
    # matrix tracking
    "BatchedFrequentDirectionsProtocol",
    "CentralizedFDBaseline",
    "CentralizedSVDBaseline",
    "DeterministicDirectionProtocol",
    "MatrixPrioritySamplingProtocol",
    "MatrixTrackingProtocol",
    "SingularDirectionUpdateProtocol",
    "WithReplacementMatrixSamplingProtocol",
    # sketches
    "ExactFrequencyCounter",
    "ExactMatrix",
    "FrequentDirections",
    "WeightedMisraGries",
    "WeightedSpaceSaving",
    # streaming substrate
    "MatrixRow",
    "Network",
    "RoundRobinPartitioner",
    "UniformRandomPartitioner",
    "WeightedItem",
]
