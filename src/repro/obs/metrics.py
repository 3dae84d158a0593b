"""Stdlib-only metrics kernel: counters, gauges, histograms, registries.

The observability layer sits below every other ``repro`` package: it
imports nothing from the rest of the tree and depends only on the
standard library, so any module (accel kernels, cluster backends, the
gateway) can instrument itself without creating an import cycle.

Design constraints, in order:

* **Bind once, then record cheaply.**  ``family.labels(spec=...)``
  validates a label set and builds its key once; a recording through the
  bound series is one flag read, one lock and one dict update, cheap
  enough to leave on per pushed item.  Per-item sites (a tracker's push
  counters) bind when their owner is built; every other site uses the
  keyword form (``counter.inc(spec=...)``), which is sugar for
  ``labels(...).inc()``.
* **Zero cost when disabled.**  Every recording call checks the owning
  registry's ``enabled`` flag before touching a lock or a dict, so a
  disabled registry costs one attribute read per call site.  Call sites
  that need a timestamp guard ``perf_counter()`` behind the same flag.
* **Bit-identity preserving.**  Nothing in this module draws from any
  random source or perturbs numeric state; metrics observe the
  computation, they never participate in it.
* **Mergeable across processes.**  ``MetricsRegistry.snapshot()``
  produces a plain dict/list structure that survives the wire codec;
  ``merge_snapshots`` folds snapshots from many workers into one view,
  de-duplicating by worker identity so embedded (same-process) workers
  are not double counted.
"""

from __future__ import annotations

import os
import socket
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS",
    "BoundCounter",
    "BoundGauge",
    "BoundHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "merge_snapshots",
    "render_prometheus",
    "worker_identity",
]

#: Fixed log-spaced latency buckets (seconds), 100 microseconds to 10s.
#: Shared by every histogram unless the caller overrides ``buckets=``;
#: a fixed ladder keeps cross-worker merges trivially element-wise.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


def worker_identity() -> str:
    """Identity used to de-duplicate snapshots: ``hostname:pid``.

    Computed at snapshot time (not import time) so forked workers report
    their own pid rather than the parent's.
    """

    return f"{socket.gethostname()}:{os.getpid()}"


class _Family:
    """A named metric family holding one series per label-value tuple.

    ``family.labels(**labels)`` validates a label set once and returns a
    bound series that records without looking its labels up again; the
    keyword recorders (``counter.inc(kind="a")``) are sugar for exactly
    that, used wherever a call costs far more than its label lookup.
    """

    kind = "untyped"
    _bound_class: Any

    __slots__ = ("name", "help", "label_names", "_registry", "_series")

    def __init__(self, registry: "MetricsRegistry", name: str, help_text: str,
                 label_names: Sequence[str]):
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._registry = registry
        self._series: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labels: Any) -> Any:
        """The series named by ``labels``, bound for cheap recording.

        Binding records nothing: a series enters snapshots only once a
        point is recorded through it.  Raises ``ValueError`` unless
        ``labels`` names exactly this family's label set.
        """
        try:
            key = tuple(str(labels[name]) for name in self.label_names)
        except KeyError:
            key = None
        if key is None or len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {sorted(labels)}")
        return self._bound_class(self, key)

    # -- snapshot plumbing -------------------------------------------------
    def _series_payload(self) -> List[List[Any]]:
        return [[list(key), value] for key, value in sorted(self._series.items())]

    def _family_payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": self._series_payload(),
        }


class _Bound:
    """One series of a family, its label key built once at bind time.

    Recording costs one enabled-flag read, one lock and one dict update.
    The bound series reads the family's live series dict, so a
    ``MetricsRegistry.reset()`` restarts it from zero and a registry
    re-enabled after ``disable()`` records through it again.  Bindings to
    the process ``REGISTRY`` pickle by family name and label values (the
    sessions that hold them pickle whole).
    """

    __slots__ = ("_family", "_registry", "_series", "_key")

    def __init__(self, family: _Family, key: Tuple[str, ...]):
        self._family = family
        self._registry = family._registry
        self._series = family._series
        self._key = key

    def __reduce__(self) -> Tuple[Any, ...]:
        family = self._family
        if REGISTRY._families.get(family.name) is not family:
            raise TypeError(f"only series of the process REGISTRY pickle; "
                            f"{family.name!r} belongs to another registry")
        return _rebind, (family.name, self._key)


def _rebind(name: str, key: Tuple[str, ...]) -> _Bound:
    family = REGISTRY._families[name]
    return family._bound_class(family, key)


class BoundCounter(_Bound):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        # Explicit acquire/release: about half the cost of ``with`` on
        # this, the per-item path.
        series, key, lock = self._series, self._key, registry._lock
        lock.acquire()
        try:
            series[key] = series.get(key, 0.0) + amount
        finally:
            lock.release()

    def value(self) -> float:
        return float(self._series.get(self._key, 0.0))


class BoundGauge(_Bound):
    __slots__ = ()

    def set(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self._series[self._key] = float(value)

    def add(self, amount: float = 1.0) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        series, key = self._series, self._key
        with registry._lock:
            series[key] = series.get(key, 0.0) + amount

    def value(self) -> float:
        return float(self._series.get(self._key, 0.0))


class BoundHistogram(_Bound):
    __slots__ = ("_buckets",)

    def __init__(self, family: "Histogram", key: Tuple[str, ...]):
        super().__init__(family, key)
        self._buckets = family.buckets

    def observe(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            series = self._series.get(self._key)
            if series is None:
                series = self._series[self._key] = \
                    _HistogramSeries(len(self._buckets))
            series.counts[bisect_left(self._buckets, value)] += 1
            series.sum += value
            series.count += 1


class Counter(_Family):
    """Monotonically increasing count (events, items, bytes)."""

    kind = "counter"
    _bound_class = BoundCounter
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if self._registry.enabled:
            self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        return self.labels(**labels).value()


class Gauge(_Family):
    """Point-in-time value that can move both ways (in-flight requests)."""

    kind = "gauge"
    _bound_class = BoundGauge
    __slots__ = ()

    def set(self, value: float, **labels: Any) -> None:
        if self._registry.enabled:
            self.labels(**labels).set(value)

    def add(self, amount: float = 1.0, **labels: Any) -> None:
        if self._registry.enabled:
            self.labels(**labels).add(amount)

    def value(self, **labels: Any) -> float:
        return self.labels(**labels).value()


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int):
        self.counts = [0] * (num_buckets + 1)  # final slot is +Inf
        self.sum = 0.0
        self.count = 0


class Histogram(_Family):
    """Distribution over fixed buckets; renders cumulative ``le`` series."""

    kind = "histogram"
    _bound_class = BoundHistogram
    __slots__ = ("buckets",)

    def __init__(self, registry: "MetricsRegistry", name: str, help_text: str,
                 label_names: Sequence[str],
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(registry, name, help_text, label_names)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        if self._registry.enabled:
            self.labels(**labels).observe(value)

    def _series_payload(self) -> List[List[Any]]:
        return [
            [list(key), {"buckets": list(series.counts),
                         "sum": series.sum, "count": series.count}]
            for key, series in sorted(self._series.items())
        ]

    def _family_payload(self) -> Dict[str, Any]:
        payload = super()._family_payload()
        payload["bounds"] = list(self.buckets)
        return payload


class MetricsRegistry:
    """Thread-safe, label-aware collection of metric families.

    ``REGISTRY`` (below) is the process-global default every repro layer
    instruments against; tests may build private registries.  Families
    are created eagerly at import time (cheap) and re-requesting a name
    returns the existing family so modules can share series.
    """

    def __init__(self, enabled: bool = True):
        self._lock = threading.RLock()
        self._families: Dict[str, _Family] = {}
        #: The flag every recording call reads first (a plain attribute,
        #: so a disabled site costs one attribute read); flip it with
        #: :meth:`enable` / :meth:`disable`.
        self.enabled = bool(enabled)

    # -- enablement --------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- family constructors ----------------------------------------------
    def _get_or_create(self, cls, name: str, help_text: str,
                       labels: Sequence[str], **kwargs: Any):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        f"different kind or label set")
                return existing
            family = cls(self, name, help_text, labels, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labels,
                                   buckets=buckets)

    # -- lifecycle ---------------------------------------------------------
    def reset(self) -> None:
        """Drop every recorded series (family definitions survive).

        Called at the top of forked worker mains so counts inherited
        from the parent process are not re-reported under a new pid.
        """

        with self._lock:
            for family in self._families.values():
                family._series.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Wire-safe snapshot of all non-empty families."""

        with self._lock:
            metrics = [
                family._family_payload()
                for _, family in sorted(self._families.items())
                if family._series
            ]
        return {"worker": worker_identity(), "metrics": metrics}


#: Process-global default registry.  ``REPRO_METRICS=0`` disables all
#: instrumentation before any module records a point.
REGISTRY = MetricsRegistry(
    enabled=os.environ.get("REPRO_METRICS", "1").lower() not in ("0", "false", "off"))


# ---------------------------------------------------------------------------
# Snapshot merging and Prometheus text exposition
# ---------------------------------------------------------------------------

def merge_snapshots(snapshots: Iterable[Optional[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Fold worker snapshots into one family list.

    Snapshots with a duplicate ``worker`` identity are dropped (first
    wins): a serial/thread cluster's shards and its parent share one
    process registry, and an embedded ``WorkerServer`` lives in the
    parent process, so identity-keyed dedupe is what prevents those
    series from being counted once per shard.
    """

    seen_workers = set()
    merged: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for snap in snapshots:
        if not snap:
            continue
        worker = snap.get("worker")
        if worker is not None:
            if worker in seen_workers:
                continue
            seen_workers.add(worker)
        for family in snap.get("metrics", ()):
            name = family["name"]
            target = merged.get(name)
            if target is None:
                target = {key: value for key, value in family.items() if key != "series"}
                target["series"] = {}
                merged[name] = target
                order.append(name)
            elif target.get("kind") != family.get("kind") or \
                    target.get("bounds") != family.get("bounds"):
                continue  # incompatible duplicate definition: first wins
            series = target["series"]
            for label_values, value in family.get("series", ()):  # type: ignore[misc]
                key = tuple(label_values)
                if key not in series:
                    if isinstance(value, dict):
                        value = {"buckets": list(value["buckets"]),
                                 "sum": value["sum"], "count": value["count"]}
                    series[key] = value
                elif isinstance(value, dict):
                    tgt = series[key]
                    tgt["buckets"] = [a + b for a, b in
                                      zip(tgt["buckets"], value["buckets"])]
                    tgt["sum"] += value["sum"]
                    tgt["count"] += value["count"]
                else:
                    series[key] += value
    result = []
    for name in sorted(order):
        family = merged[name]
        family["series"] = [[list(key), family["series"][key]]
                            for key in sorted(family["series"])]
        result.append(family)
    return result


def _format_value(value: float) -> str:
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_block(names: Sequence[str], values: Sequence[str],
                 extra: Optional[Tuple[str, str]] = None) -> str:
    parts = [f'{name}="{_escape_label(str(value))}"'
             for name, value in zip(names, values)]
    if extra is not None:
        parts.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(families: Iterable[Dict[str, Any]]) -> str:
    """Render merged families in Prometheus text exposition format 0.0.4."""

    lines: List[str] = []
    for family in families:
        name = family["name"]
        labels = family.get("labels", [])
        lines.append(f"# HELP {name} {family.get('help', '')}".rstrip())
        lines.append(f"# TYPE {name} {family.get('kind', 'untyped')}")
        if family.get("kind") == "histogram":
            bounds = family.get("bounds", [])
            for label_values, value in family.get("series", ()):
                cumulative = 0
                for bound, count in zip(bounds, value["buckets"]):
                    cumulative += count
                    block = _label_block(labels, label_values,
                                         ("le", _format_value(bound)))
                    lines.append(f"{name}_bucket{block} {cumulative}")
                block = _label_block(labels, label_values, ("le", "+Inf"))
                lines.append(f"{name}_bucket{block} {value['count']}")
                block = _label_block(labels, label_values)
                lines.append(f"{name}_sum{block} {_format_value(value['sum'])}")
                lines.append(f"{name}_count{block} {value['count']}")
        else:
            for label_values, value in family.get("series", ()):
                block = _label_block(labels, label_values)
                lines.append(f"{name}{block} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")
