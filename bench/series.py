"""Series the program already exports, read in the scrape format.

``REGISTRY.snapshot()`` (this process, or a cluster's merged workers) and
``GET /v1/metrics`` (the gateway process) are both reduced to the Prometheus
text exposition and parsed by one function, so a before/after delta means
the same thing wherever the work ran.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.obs import REGISTRY, merge_snapshots, render_prometheus


def parse_prometheus(text: str) -> Dict[str, float]:
    """``name{labels}`` -> value for every sample line of a text exposition."""
    series: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            series[key] = float(value)
        except ValueError:
            continue
    return series


def local_metrics_text(snapshots: Optional[Iterable[Dict[str, Any]]] = None) -> str:
    """This process's registry (or the given snapshots) in the scrape format."""
    if snapshots is None:
        snapshots = [REGISTRY.snapshot()]
    return render_prometheus(merge_snapshots(snapshots))


def series_total(series: Dict[str, float], name: str, **labels: str) -> float:
    """Sum of every series of family ``name`` whose labels include ``labels``."""
    total = 0.0
    for key, value in series.items():
        family, _, block = key.partition("{")
        if family != name:
            continue
        if all(f'{label}="{wanted}"' in block for label, wanted in labels.items()):
            total += value
    return total


def series_delta(before: Dict[str, float], after: Dict[str, float],
                 name: str, **labels: str) -> float:
    return series_total(after, name, **labels) - series_total(before, name, **labels)


def mean_delta_ms(before: Dict[str, float], after: Dict[str, float],
                  histogram: str, **labels: str) -> float:
    """Mean of the observations a histogram gained between two scrapes, in ms."""
    count = series_delta(before, after, f"{histogram}_count", **labels)
    if count <= 0:
        return 0.0
    return series_delta(before, after, f"{histogram}_sum", **labels) / count * 1e3
