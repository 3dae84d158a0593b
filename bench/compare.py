"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.json B.json``.

``A`` (the parent) and ``B`` (the change) are ``results.json`` files written
by ``bench/run.py`` without ``--workload``, ideally with ``--repeats 10``.
Every end-to-end metric gets one row per workload with a verdict judged
against the metric's bound in ``BENCHMARK.json``:

``regressed``   B's median is worse than A's by more than the bound
``improved``    B's median is better than A's by more than the run-to-run spread
``unchanged``   neither
``unresolved``  the spread (quartile distance / median, the wider of the two
                sides) exceeds the bound, so the runs cannot tell - unless
                every run of one side beats every run of the other, which
                is then reported as improved or regressed

Per-layer metrics (traced runs) are listed with both medians and no verdict.
The failed-operation share is compared per workload; more failures in B is a
regression.  Exit status is non-zero on any regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)  # run as a script: make the bench package importable

from bench import declared as load_declared  # noqa: E402
from bench.stats import quartile_spread  # noqa: E402

Samples = Dict[Tuple[str, str], List[float]]  # (workload, metric) -> one value per run


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def collect(runs: Sequence[Dict[str, Any]], trace: int) -> Samples:
    samples: Samples = defaultdict(list)
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            samples[(run["workload"], name)].append(float(metric["value"]))
    return samples


def spread_of(values: Sequence[float]) -> float:
    """Quartile distance over median; 0 when there are too few runs to have quartiles."""
    return quartile_spread(values) if len(values) >= 2 else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, worsening, spread)``; worsening > 0 means the change is worse."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worsening = sign * (statistics.median(change) - base) / abs(base) if base else 0.0
    spread = max(spread_of(parent), spread_of(change))
    if spread > bound:
        if all(sign * c < sign * p for c in change for p in parent):
            return "improved", worsening, spread
        if all(sign * c > sign * p for c in change for p in parent):
            return "regressed", worsening, spread
        return "unresolved", worsening, spread
    if worsening > bound:
        return "regressed", worsening, spread
    if worsening < -spread and worsening < 0.0:
        return "improved", worsening, spread
    return "unchanged", worsening, spread


def failed_share(runs: Sequence[Dict[str, Any]]) -> Dict[str, Tuple[int, int]]:
    totals: Dict[str, Tuple[int, int]] = {}
    for run in runs:
        attempted, failed = totals.get(run["workload"], (0, 0))
        totals[run["workload"]] = (attempted + run["attempted"], failed + run["failed"])
    return totals


def compare(parent_runs: Sequence[Dict[str, Any]], change_runs: Sequence[Dict[str, Any]],
            declared: Dict[str, Any]) -> Tuple[List[str], int]:
    """The report lines and the number of regressions."""
    lines: List[str] = []
    regressions = 0
    parent, change = collect(parent_runs, 0), collect(change_runs, 0)
    workloads = [entry["name"] for entry in declared["workloads"]]
    lines.append(f"{'metric':<26} {'workload':<15} {'A median':>12} {'B median':>12} "
                 f"{'worse by':>9} {'spread':>7} {'bound':>6} {'runs':>5}  verdict")
    for entry in declared["end_to_end"]:
        for workload in workloads:
            key = (workload, entry["name"])
            if key not in parent or key not in change:
                continue
            outcome, worsening, spread = verdict(parent[key], change[key],
                                                 entry["better"], entry["bound"])
            regressions += outcome == "regressed"
            lines.append(
                f"{entry['name']:<26} {workload:<15} {statistics.median(parent[key]):>12.6g} "
                f"{statistics.median(change[key]):>12.6g} {worsening:>+9.1%} {spread:>7.1%} "
                f"{entry['bound']:>6.0%} {len(parent[key]):>2}/{len(change[key]):<2}  {outcome}")
    parent_fail, change_fail = failed_share(parent_runs), failed_share(change_runs)
    for workload in workloads:
        if workload not in parent_fail or workload not in change_fail:
            continue
        a_share = parent_fail[workload][1] / max(1, parent_fail[workload][0])
        b_share = change_fail[workload][1] / max(1, change_fail[workload][0])
        worse = b_share > a_share
        regressions += worse
        lines.append(f"{'failed_operation_share':<26} {workload:<15} {a_share:>12.6f} "
                     f"{b_share:>12.6f} {'':>9} {'':>7} {'':>6} {'':>5}  "
                     f"{'regressed' if worse else 'unchanged'}")
    layer_a, layer_b = collect(parent_runs, 1), collect(change_runs, 1)
    if layer_a and layer_b:
        lines.append("")
        lines.append(f"{'per-layer metric':<36} {'workload':<15} {'A median':>12} "
                     f"{'B median':>12} {'B/A':>7}")
        for entry in declared["per_layer"]:
            for workload in workloads:
                key = (workload, entry["name"])
                if key not in layer_a or key not in layer_b:
                    continue
                a_value = statistics.median(layer_a[key])
                b_value = statistics.median(layer_b[key])
                if a_value == 0.0 and b_value == 0.0:
                    continue  # a layer this workload never enters
                ratio = f"{b_value / a_value:>7.3f}" if a_value else f"{'-':>7}"
                lines.append(f"{entry['name']:<36} {workload:<15} {a_value:>12.6g} "
                             f"{b_value:>12.6g} {ratio}")
    return lines, regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    lines, regressions = compare(load_runs(args[0]), load_runs(args[1]), load_declared())
    print("\n".join(lines))
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
