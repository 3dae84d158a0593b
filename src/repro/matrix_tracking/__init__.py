"""Distributed matrix-tracking protocols (Section 5 and Appendix C).

* :class:`BatchedFrequentDirectionsProtocol` — **P1**, batched FD sketches.
* :class:`DeterministicDirectionProtocol` — **P2**, deterministic direction thresholds.
* :class:`MatrixPrioritySamplingProtocol` — **P3** (without replacement).
* :class:`WithReplacementMatrixSamplingProtocol` — **P3wr**.
* :class:`SingularDirectionUpdateProtocol` — **P4** (appendix C, the negative result).
* :class:`CentralizedSVDBaseline`, :class:`CentralizedFDBaseline` — send-everything baselines.
"""

from .base import MatrixTrackingProtocol
from .baselines import CentralizedFDBaseline, CentralizedSVDBaseline
from .p1_batched_fd import BatchedFrequentDirectionsProtocol
from .p2_deterministic import DeterministicDirectionProtocol
from .p3_sampling import (
    MatrixPrioritySamplingProtocol,
    WithReplacementMatrixSamplingProtocol,
)
from .p4_singular_directions import SingularDirectionUpdateProtocol

__all__ = [
    "MatrixTrackingProtocol",
    "CentralizedFDBaseline",
    "CentralizedSVDBaseline",
    "BatchedFrequentDirectionsProtocol",
    "DeterministicDirectionProtocol",
    "MatrixPrioritySamplingProtocol",
    "WithReplacementMatrixSamplingProtocol",
    "SingularDirectionUpdateProtocol",
]
