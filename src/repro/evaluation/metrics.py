"""Evaluation metrics matching Section 6 of the paper.

Heavy hitters (Section 6.1)
    * **recall** — fraction of true ``φ``-heavy hitters returned,
    * **precision** — fraction of returned elements that are true heavy hitters,
    * **err** — average relative error of the estimated frequencies of the
      *true* heavy hitters,
    * **msg** — number of messages (taken from the protocol's network log).

Matrix tracking (Section 6.2)
    * **err** — ``‖AᵀA − BᵀB‖₂ / ‖A‖²_F``,
    * **msg** — number of scalar plus vector messages.

The ground truth (element weights, the matrix ``A``) is always the caller's:
whoever fed the stream passes it in, since no protocol keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

import numpy as np

from ..heavy_hitters.base import WeightedHeavyHitterProtocol
from ..matrix_tracking.base import MatrixTrackingProtocol
from ..utils.linalg import covariance_error, spectral_norm, squared_frobenius
from ..utils.validation import check_phi

__all__ = [
    "exact_heavy_hitters",
    "heavy_hitter_recall",
    "heavy_hitter_precision",
    "average_relative_error",
    "total_weight_relative_error",
    "HeavyHitterEvaluation",
    "evaluate_heavy_hitter_protocol",
    "matrix_error_from_covariances",
    "MatrixEvaluation",
    "evaluate_matrix_protocol",
]


# --------------------------------------------------------------------------- HH
def exact_heavy_hitters(element_weights: Dict[Hashable, float], phi: float,
                        total_weight: Optional[float] = None) -> List[Hashable]:
    """Return the exact ``φ``-weighted heavy hitters of a weight map."""
    phi = check_phi(phi, name="phi")
    if total_weight is None:
        total_weight = sum(element_weights.values())
    if total_weight <= 0.0:
        return []
    threshold = phi * total_weight
    hitters = [element for element, weight in element_weights.items()
               if weight >= threshold]
    hitters.sort(key=lambda element: -element_weights[element])
    return hitters


def heavy_hitter_recall(returned: Iterable[Hashable],
                        true_hitters: Iterable[Hashable]) -> float:
    """Fraction of true heavy hitters present in the returned set (1.0 if none exist)."""
    truth = set(true_hitters)
    if not truth:
        return 1.0
    found = set(returned)
    return len(truth & found) / len(truth)


def heavy_hitter_precision(returned: Iterable[Hashable],
                           true_hitters: Iterable[Hashable]) -> float:
    """Fraction of returned elements that are true heavy hitters (1.0 if none returned)."""
    found = set(returned)
    if not found:
        return 1.0
    truth = set(true_hitters)
    return len(truth & found) / len(found)


def average_relative_error(estimates: Dict[Hashable, float],
                           element_weights: Dict[Hashable, float],
                           elements: Sequence[Hashable]) -> float:
    """Average relative error of estimated weights over the given elements.

    This is the paper's ``err`` metric for heavy hitters: the estimates of the
    *true* heavy hitters are compared to their exact weights.  Elements with
    zero true weight are skipped.
    """
    errors = []
    for element in elements:
        truth = element_weights.get(element, 0.0)
        if truth <= 0.0:
            continue
        estimate = estimates.get(element, 0.0)
        errors.append(abs(estimate - truth) / truth)
    if not errors:
        return 0.0
    return float(np.mean(errors))


def total_weight_relative_error(estimated_total: float, true_total: float) -> float:
    """Relative error ``|Ŵ − W| / W`` of the total-weight estimate."""
    if true_total <= 0.0:
        return 0.0
    return abs(estimated_total - true_total) / true_total


@dataclass(frozen=True)
class HeavyHitterEvaluation:
    """All Section 6.1 metrics for one protocol run."""

    protocol_name: str
    epsilon: float
    phi: float
    recall: float
    precision: float
    average_error: float
    total_weight_error: float
    messages: int
    returned_heavy_hitters: int
    true_heavy_hitters: int

    def as_dict(self) -> Dict[str, float]:
        """Return the metrics as a flat dictionary (for tables and sweeps)."""
        return {
            "protocol": self.protocol_name,
            "epsilon": self.epsilon,
            "phi": self.phi,
            "recall": self.recall,
            "precision": self.precision,
            "err": self.average_error,
            "total_weight_err": self.total_weight_error,
            "msg": self.messages,
            "returned": self.returned_heavy_hitters,
            "true": self.true_heavy_hitters,
        }


def evaluate_heavy_hitter_protocol(
    protocol: WeightedHeavyHitterProtocol,
    element_weights: Dict[Hashable, float],
    phi: float,
    total_weight: Optional[float] = None,
    name: Optional[str] = None,
) -> HeavyHitterEvaluation:
    """Compute recall / precision / err / msg for a protocol that has consumed a stream.

    Parameters
    ----------
    protocol:
        The protocol after the stream has been fed in.
    element_weights:
        Exact per-element weights of the stream (ground truth).
    phi:
        Heavy-hitter threshold.
    total_weight:
        Exact total stream weight; derived from ``element_weights`` if omitted.
    name:
        Label stored in the evaluation record; defaults to the class name.
    """
    phi = check_phi(phi, name="phi")
    if total_weight is None:
        total_weight = sum(element_weights.values())
    truth = exact_heavy_hitters(element_weights, phi, total_weight)
    returned = protocol.heavy_hitter_elements(phi)
    estimates = protocol.estimates()
    return HeavyHitterEvaluation(
        protocol_name=name if name is not None else type(protocol).__name__,
        epsilon=protocol.epsilon,
        phi=phi,
        recall=heavy_hitter_recall(returned, truth),
        precision=heavy_hitter_precision(returned, truth),
        average_error=average_relative_error(estimates, element_weights, truth),
        total_weight_error=total_weight_relative_error(
            protocol.estimated_total_weight(), total_weight
        ),
        messages=protocol.total_messages,
        returned_heavy_hitters=len(returned),
        true_heavy_hitters=len(truth),
    )


# ------------------------------------------------------------------------ matrix
def matrix_error_from_covariances(true_covariance: np.ndarray,
                                  sketch: np.ndarray,
                                  true_squared_frobenius: float) -> float:
    """Paper metric ``err`` computed from a precomputed covariance ``AᵀA``."""
    if true_squared_frobenius <= 0.0:
        return 0.0
    sketch = np.asarray(sketch, dtype=np.float64)
    if sketch.size == 0:
        sketch_cov = np.zeros_like(true_covariance)
    else:
        sketch_cov = sketch.T @ sketch
    return spectral_norm(true_covariance - sketch_cov) / true_squared_frobenius


@dataclass(frozen=True)
class MatrixEvaluation:
    """All Section 6.2 metrics for one protocol run."""

    protocol_name: str
    epsilon: float
    error: float
    messages: int
    sketch_rows: int
    frobenius_estimate_error: float

    def as_dict(self) -> Dict[str, float]:
        """Return the metrics as a flat dictionary (for tables and sweeps)."""
        return {
            "protocol": self.protocol_name,
            "epsilon": self.epsilon,
            "err": self.error,
            "msg": self.messages,
            "sketch_rows": self.sketch_rows,
            "frobenius_err": self.frobenius_estimate_error,
        }


def evaluate_matrix_protocol(protocol: MatrixTrackingProtocol,
                             original: np.ndarray,
                             name: Optional[str] = None) -> MatrixEvaluation:
    """Compute err / msg for a matrix protocol that has consumed a stream.

    Parameters
    ----------
    protocol:
        The protocol after the stream has been fed in.
    original:
        The exact matrix ``A`` the protocol was fed (ground truth).
    name:
        Label stored in the evaluation record; defaults to the class name.
    """
    sketch = protocol.sketch_matrix()
    true_norm = squared_frobenius(original)
    frobenius_error = (
        abs(protocol.estimated_squared_frobenius() - true_norm) / true_norm
        if true_norm > 0.0 else 0.0
    )
    return MatrixEvaluation(
        protocol_name=name if name is not None else type(protocol).__name__,
        epsilon=protocol.epsilon,
        error=covariance_error(original, sketch),
        messages=protocol.total_messages,
        sketch_rows=int(sketch.shape[0]),
        frobenius_estimate_error=frobenius_error,
    )
