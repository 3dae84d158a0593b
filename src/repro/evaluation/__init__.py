"""Evaluation layer: paper metrics, parameter sweeps and result rendering."""

from .metrics import (
    HeavyHitterEvaluation,
    MatrixEvaluation,
    average_relative_error,
    evaluate_heavy_hitter_protocol,
    evaluate_matrix_protocol,
    exact_heavy_hitters,
    heavy_hitter_precision,
    heavy_hitter_recall,
    matrix_error_from_covariances,
    total_weight_relative_error,
)
from .sweep import ParameterSweep, SweepRecord, SweepResult
from .tables import format_series, format_table, format_value, render_figure

__all__ = [
    "HeavyHitterEvaluation",
    "MatrixEvaluation",
    "average_relative_error",
    "evaluate_heavy_hitter_protocol",
    "evaluate_matrix_protocol",
    "exact_heavy_hitters",
    "heavy_hitter_precision",
    "heavy_hitter_recall",
    "matrix_error_from_covariances",
    "total_weight_relative_error",
    "ParameterSweep",
    "SweepRecord",
    "SweepResult",
    "format_series",
    "format_table",
    "format_value",
    "render_figure",
]
