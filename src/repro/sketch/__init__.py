"""Single-stream summaries (sketches) used as building blocks by the protocols.

Frequency summaries
    :class:`WeightedMisraGries`, :class:`WeightedSpaceSaving`,
    :class:`ExactFrequencyCounter`.

Matrix summaries
    :class:`FrequentDirections`, :class:`ExactMatrix`.

Priority sampling keeps only its sample-size rule here
(:func:`sample_size_for_epsilon`); the sampler itself is distributed and
lives in :mod:`repro.streaming.priority_sampling`.
"""

from .base import FrequencySketch, MatrixSketch, aggregate_weighted_batch
from .exact import ExactFrequencyCounter, ExactMatrix
from .frequent_directions import FrequentDirections
from .misra_gries import WeightedMisraGries
from .priority_sampler import sample_size_for_epsilon
from .space_saving import WeightedSpaceSaving

__all__ = [
    "FrequencySketch",
    "MatrixSketch",
    "aggregate_weighted_batch",
    "ExactFrequencyCounter",
    "ExactMatrix",
    "FrequentDirections",
    "WeightedMisraGries",
    "sample_size_for_epsilon",
    "WeightedSpaceSaving",
]
