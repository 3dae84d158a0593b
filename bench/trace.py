"""In-memory spans recorded by the harness around calls into the program's layers.

The program under test is not modified: :meth:`Tracer.instrument` swaps a
public function or method for a recording wrapper at run time (and
:meth:`Tracer.restore` puts the original back), so a span is taken *around*
the call, from the benchmark's own files.  Spans are
``{id, parent, request, name, layer, start, end}``; every span under one
top-level call shares that call's ``request`` id.  A layer's *self time* is
its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    request: int
    name: str
    layer: str
    start: float
    end: float


#: Spans kept per trace; beyond it new spans are counted in ``dropped`` only,
#: so a long per-item phase cannot exhaust memory.
MAX_SPANS = 150_000


class Tracer:
    """Records nested spans per thread and patches layer functions to emit them."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.spans: List[Span] = []
        self.dropped = 0
        self._clock = clock
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[int, Optional[int], int, List[Tuple[int, int]]]:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        if stack:
            parent, request = stack[-1]
        else:
            parent, request = None, span_id
        stack.append((span_id, request))
        return span_id, parent, request, stack

    def _close(self, span_id: int, parent: Optional[int], request: int,
               name: str, layer: str, start: float, end: float) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append(Span(span_id, parent, request, name, layer, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Record the enclosed block as one span of ``layer``."""
        span_id, parent, request, stack = self._open()
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            stack.pop()
            self._close(span_id, parent, request, name, layer, start, end)

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` with a span of ``layer`` recorded around every call.

        Spelled out rather than ``with self.span(...)``: per-item calls go
        through here, and a generator context manager costs as much as they do.
        """
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id, parent, request, stack = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(span_id, parent, request, name, layer, start, end)

        return traced

    # ------------------------------------------------------------- patching
    def instrument(self, owner: Any, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` (a class method or module function) with a traced one."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}".split("repro.")[-1]
        if isinstance(raw, classmethod):
            traced: Any = classmethod(self.wrap(raw.__func__, name, layer))
        else:
            traced = self.wrap(raw, name, layer)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, traced)
        if not isinstance(owner, type):
            # ``from module import fn`` aliases hold their own reference.
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, alias, raw))
                        setattr(module, alias, traced)

    def restore(self) -> None:
        """Undo every :meth:`instrument` call, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -------------------------------------------------------------- reading
    def write(self, path: str) -> None:
        """One row per span, in ``Span._fields`` order."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": Span._fields, "dropped": self.dropped,
                       "spans": self.spans}, handle, separators=(",", ":"))


def read_trace(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)["spans"]]


def covered_length(intervals: Iterable[Tuple[float, float]],
                   lower: float, upper: float) -> float:
    """Length of ``[lower, upper]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lower
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, upper)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of that interval its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per layer."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += own[span.id]
    return dict(totals)
