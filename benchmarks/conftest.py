"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The workload
sizes here are scaled down from the paper's (10^7 stream items, 629k/300k-row
matrices) so the whole harness completes in a few minutes; the *shape* of each
result — which protocol wins, by roughly what factor, how curves move with
ε / m / β — is what the assertions check.

Set the environment variable ``REPRO_BENCH_SCALE`` to a float (e.g. ``10``)
to multiply the stream/matrix sizes for a closer-to-paper run.
"""

from __future__ import annotations

import os

import pytest

from repro.evaluation.figures import HeavyHitterConfig, MatrixConfig


def _scale() -> float:
    try:
        return max(0.1, float(os.environ.get("REPRO_BENCH_SCALE", "1")))
    except ValueError:
        return 1.0


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """The global size multiplier applied to benchmark workloads."""
    return _scale()


@pytest.fixture(scope="session")
def hh_config(bench_scale) -> HeavyHitterConfig:
    """Heavy-hitter benchmark configuration (Figure 1)."""
    return HeavyHitterConfig(
        num_items=int(30_000 * bench_scale),
        universe_size=10_000,
        num_sites=50,
        seed=2014,
        epsilon_grid=[1e-3, 5e-3, 1e-2, 5e-2],
        beta_grid=[1.0, 10.0, 100.0, 1_000.0, 10_000.0],
    )


@pytest.fixture(scope="session")
def matrix_config(bench_scale) -> MatrixConfig:
    """Matrix-tracking benchmark configuration (Table 1, Figures 2-4, 6-7)."""
    return MatrixConfig(
        num_rows=int(6_000 * bench_scale),
        num_sites=50,
        seed=2014,
        epsilon_grid=[5e-3, 1e-2, 5e-2, 1e-1, 5e-1],
        site_grid=[10, 25, 50, 100],
    )


@pytest.fixture(scope="session")
def run_once():
    """Helper fixture: run a function exactly once under pytest-benchmark timing.

    Every experiment driver is deterministic and expensive relative to timer
    resolution, so a single round is both sufficient and necessary to keep the
    harness fast.  For the same reason a sweep is computed once per session:
    the panels of one figure (error *and* messages against ε, say) read the
    same driver result, keyed by driver function and arguments.  A repeated
    panel still goes through ``benchmark.pedantic`` — timing the lookup — so
    pytest-benchmark sees its fixture used; treat the result as read-only.
    """
    results = {}

    def _run(benchmark, function, *args, **kwargs):
        key = (function, repr((args, sorted(kwargs.items()))))

        def once():
            if key not in results:
                results[key] = function(*args, **kwargs)
            return results[key]

        return benchmark.pedantic(once, rounds=1, iterations=1, warmup_rounds=0)

    return _run
