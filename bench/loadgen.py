"""Load generation: open-loop schedules, time-boxed closed loops, operation counts."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence


@dataclass
class Ops:
    """Operations attempted against the program, and the ones that failed.

    A failed correctness check counts as a failed operation too, so the
    failed share and ``correct`` come from one tally.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return bool(condition)


@dataclass(frozen=True)
class OpenLoopSample:
    due: float      # when the schedule said to send
    sent: float     # when the generator actually sent
    done: float     # when the reply was complete
    tag: Any

    @property
    def latency(self) -> float:
        """Timed from the due time, so a stall charges the requests queued behind it."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def open_loop_due_times(start: float, rate: float, count: int) -> List[float]:
    """``count`` send times at a fixed ``rate`` per second from ``start``."""
    return [start + index / rate for index in range(count)]


def run_open_loop(due_times: Sequence[float], send: Callable[[int], Any],
                  keep_going: Callable[[], bool] = lambda: True,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep) -> List[OpenLoopSample]:
    """Send request ``i`` at ``due_times[i]`` regardless of how the last one went.

    The schedule never slows down for a slow reply: a request whose due time
    has already passed is sent at once and its wait shows up as latency (and
    as ``lateness``).  Stops early once ``keep_going()`` turns false.
    """
    samples: List[OpenLoopSample] = []
    for index, due in enumerate(due_times):
        if not keep_going():
            break
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        tag = send(index)
        samples.append(OpenLoopSample(due=due, sent=sent, done=clock(), tag=tag))
    return samples


def timed_loop(budget_s: float, body: Callable[[int], None],
               min_count: int = 1, max_count: Optional[int] = None,
               clock: Callable[[], float] = time.perf_counter) -> List[float]:
    """Closed loop: call ``body(i)`` back to back for ``budget_s``; seconds per call."""
    durations: List[float] = []
    deadline = clock() + budget_s
    index = 0
    while max_count is None or index < max_count:
        started = clock()
        if index >= min_count and started >= deadline:
            break
        body(index)
        durations.append(clock() - started)
        index += 1
    return durations
