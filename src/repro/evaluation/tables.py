"""Plain-text rendering of experiment results.

The benchmark harness prints each figure/table of the paper as rows/series on
stdout; these helpers keep that formatting in one place.  Nothing here is
required for correctness — all experiment drivers also return structured data
— but readable output makes the paper-versus-measured comparison auditable.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_value", "format_table", "format_series", "render_figure"]

#: Float64 resolution at 1 (machine epsilon, 2**-52 ≈ 2.2e-16).  Every
#: float a figure prints is of order one or a quantity normalised to it
#: (err divides by ‖A‖²_F or W), so a magnitude below this is rounding
#: noise, not a measurement.
FLOAT64_FLOOR = sys.float_info.epsilon


def format_value(value: Any) -> str:
    """Format one cell: scientific notation for small/large floats, plain otherwise.

    A float below :data:`FLOAT64_FLOOR` in magnitude prints as ``0``: an
    exact sketch's err is 0 up to float summation order (about 2e-17 on
    the MSD stand-in), and its cell must not move when only that order
    does.  The value itself is left as measured.
    """
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if abs(value) < FLOAT64_FLOOR:
            return "0"
        if abs(value) < 1e-3 or abs(value) >= 1e6:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]],
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render a list of dictionaries as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(column) for column in columns]
    body: List[List[str]] = [
        [format_value(row.get(column, "")) for column in columns] for row in rows
    ]
    widths = [
        max(len(header[index]), *(len(line[index]) for line in body))
        for index in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[index].ljust(widths[index]) for index in range(len(columns))))
    lines.append("  ".join("-" * widths[index] for index in range(len(columns))))
    for line in body:
        lines.append("  ".join(line[index].ljust(widths[index]) for index in range(len(columns))))
    return "\n".join(lines)


def format_series(x_values: Sequence[Any], series: Mapping[str, Iterable[Any]],
                  x_label: str, y_label: str,
                  title: Optional[str] = None) -> str:
    """Render figure-style data: one row per x value, one column per protocol."""
    rows: List[Dict[str, Any]] = []
    series_lists = {name: list(values) for name, values in series.items()}
    for index, x_value in enumerate(x_values):
        row: Dict[str, Any] = {x_label: x_value}
        for name, values in series_lists.items():
            row[name] = values[index] if index < len(values) else None
        rows.append(row)
    heading = title if title else f"{y_label} vs {x_label}"
    return format_table(rows, columns=[x_label, *series_lists.keys()], title=heading)


def render_figure(result: "SweepResult", metric: str, title: str) -> str:
    """Render one metric of a :class:`~repro.evaluation.sweep.SweepResult` as a figure table."""
    series = result.series(metric)
    return format_series(result.values(), series, x_label=result.parameter,
                         y_label=metric, title=title)
