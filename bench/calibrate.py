"""How slow the host is right now, measured on a fixed kernel of the harness's own.

The box this benchmark was sized on is a shared virtual machine that slows
by 20-50 % for stretches of ten seconds to minutes: the same bulk pass took
0.21 s or 0.33 s depending on the minute, and this kernel slowed with it
(correlation 0.8 over four minutes).  Whole runs fall inside one stretch, so
no statistic over a run's own samples can remove it; dividing a duration by
the slowdown the host showed just before and after it removes most of it
(run-to-run quartile spread of a pass fell from 0.28 to 0.08-0.11).

The kernel mixes what the program's time goes into - interpreter loops,
small LAPACK factorisations, a BLAS product and a buffer copy - and takes a
few milliseconds.  It calls nothing from ``src/repro``, so a change to the
program cannot move it.  The program slows by more than the kernel does:
over two sets of ten runs, times already divided by the kernel's slowdown
still rose with it, with log-log slopes between 0 (checkpoint writes) and 1
(heavy-hitter passes), 0.4 in the middle - hence the exponent below.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Seconds one kernel run takes on the sizing box when nothing else competes.
NOMINAL_S = 0.0037
#: The program's time grows as the kernel's time to this power (see above).
PROGRAM_EXPONENT = 1.4

_rng = np.random.default_rng(2014)
_SMALL = _rng.standard_normal((200, 44))
_TALL = _rng.standard_normal((4096, 44))


def kernel_seconds(clock=time.perf_counter) -> float:
    begin = clock()
    total = 0
    for index in range(20_000):
        total += index * index
    for _ in range(4):
        np.linalg.svd(_SMALL, full_matrices=False)
    _TALL.T @ _TALL
    _TALL.copy()
    return clock() - begin


def slowdown(runs: int = 5) -> float:
    """What to divide a duration measured now by: 1.0 on a quiet sizing box.

    The fastest of ``runs`` kernel runs over the nominal time, raised to the
    power that carries the kernel's slowdown over to the program's.
    """
    return (min(kernel_seconds() for _ in range(runs)) / NOMINAL_S) ** PROGRAM_EXPONENT


class HostSpeed:
    """Takes slowdown readings and remembers them, so a run can report how its host behaved."""

    def __init__(self, runs: int = 5) -> None:
        self.runs = runs
        self.readings: List[float] = []

    def read(self) -> float:
        reading = slowdown(self.runs)
        self.readings.append(reading)
        return reading
