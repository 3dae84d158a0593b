"""Sample summaries: medians, the supported tail percentile, the quietest window.

How a timing becomes one number (the host is a shared machine, see
:mod:`bench.calibrate`):

1. every duration is divided by the slowdown the host showed around it;
2. inside one time-boxed loop, consecutive samples are grouped into windows
   of 25 ms of work and the *lowest window median* is taken - the
   operation's median while no burst of outside load was passing;
3. work that differs from unit to unit (the chunks of a stream, the
   stations of a checkpoint phase) is reduced by a *median over units*;
4. rounds repeat identical work, and the *median over rounds* is reported.

The plain median, the supported tail percentile and the sample count of the
(slowdown-corrected) samples are printed beside every value.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Tail percentiles the harness will report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A percentile is only reported when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: Consecutive samples are grouped into windows of at least this much work.
QUIET_WINDOW_S = 0.025


def tail_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with >= 10 of ``count`` samples beyond it."""
    for candidate in TAIL_CANDIDATES:
        # round() guards 1000 * (1 - 0.99) == 9.999999999999991
        if round(count * (100.0 - candidate) / 100.0, 9) >= MIN_SAMPLES_BEYOND:
            return candidate
    return None


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    rank = max(1, math.ceil(round(len(ordered) * pct / 100.0, 9)))
    return ordered[rank - 1]


def summarize(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, the supported tail percentile (or ``None``) and the sample count."""
    if not samples:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(samples)
    tail_pct = tail_percentile(len(ordered))
    return {
        "median": statistics.median(ordered),
        "tail_pct": tail_pct,
        "tail": None if tail_pct is None else percentile(ordered, tail_pct),
        "n": len(ordered),
    }


def window_medians(durations: Sequence[float],
                   window_s: float = QUIET_WINDOW_S) -> List[float]:
    """Medians of consecutive windows, each closed once it holds ``window_s`` of work.

    A trailing window that never filled is dropped, unless it is the only one.
    """
    medians: List[float] = []
    window: List[float] = []
    held = 0.0
    for duration in durations:
        window.append(duration)
        held += duration
        if held >= window_s:
            medians.append(statistics.median(window))
            window, held = [], 0.0
    if window and not medians:
        medians.append(statistics.median(window))
    return medians


def quiet_median(durations: Sequence[float], window_s: float = QUIET_WINDOW_S) -> float:
    """The lowest window median: the operation's median while the host was quietest."""
    if not durations:
        raise ValueError("cannot summarize an empty sample")
    return min(window_medians(durations, window_s))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are judged against."""
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else float("inf")
