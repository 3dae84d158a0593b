"""Figures 2(a)-(d): matrix tracking protocols P1-P3 on the PAMAP-like dataset.

Panels (a)/(b) sweep the error parameter ε, panels (c)/(d) sweep the number of
sites m.  Each benchmark prints the regenerated series and asserts the shape
reported in the paper.
"""

from __future__ import annotations

from repro.evaluation.figures import FIGURES, sweep
from repro.evaluation.tables import render_figure

FIGURE = FIGURES["figure2"]


def _epsilon_sweep(config):
    return sweep("matrix", "epsilon", config.epsilon_grid, FIGURE.labels,
                 config.for_dataset(FIGURE.dataset))


def _site_sweep(config):
    return sweep("matrix", "num_sites", config.site_grid, FIGURE.labels,
                 config.for_dataset(FIGURE.dataset))


class TestFigure2EpsilonSweep:
    def test_fig2a_err_vs_eps(self, benchmark, matrix_config, run_once):
        result = run_once(benchmark, _epsilon_sweep, matrix_config)
        print()
        print(render_figure(result, "err", "Figure 2(a): error vs epsilon (PAMAP-like)"))
        errors = result.series("err")
        epsilons = result.values()
        for protocol in ("P1", "P2", "P3"):
            series = errors[protocol]
            # Error grows with epsilon (weakly, allowing sampling noise) ...
            assert series[0] <= series[-1] + 1e-6, protocol
            # ... and never exceeds the guarantee.
            for epsilon, value in zip(epsilons, series):
                assert value <= epsilon + 1e-9, (protocol, epsilon, value)
        # P1 vastly outperforms its guarantee (most accurate protocol).
        for index in range(len(epsilons)):
            assert errors["P1"][index] <= errors["P2"][index] + 1e-9

    def test_fig2b_msg_vs_eps(self, benchmark, matrix_config, run_once):
        result = run_once(benchmark, _epsilon_sweep, matrix_config)
        print()
        print(render_figure(result, "msg", "Figure 2(b): messages vs epsilon (PAMAP-like)"))
        messages = result.series("msg")
        for protocol in ("P1", "P2", "P3"):
            # Communication decreases as epsilon grows.
            assert messages[protocol][-1] < messages[protocol][0], protocol
        # P1 sends much more than P2 and P3 at every epsilon.
        for index in range(len(result.values())):
            assert messages["P1"][index] > messages["P2"][index]
            assert messages["P1"][index] > messages["P3"][index]


class TestFigure2SiteSweep:
    def test_fig2c_msg_vs_sites(self, benchmark, matrix_config, run_once):
        result = run_once(benchmark, _site_sweep, matrix_config)
        print()
        print(render_figure(result, "msg", "Figure 2(c): messages vs sites (PAMAP-like)"))
        messages = result.series("msg")
        # P2 and P3 communication grows (roughly linearly) with the number of
        # sites.
        for protocol in ("P2", "P3"):
            assert messages[protocol][-1] > messages[protocol][0], protocol

    def test_fig2d_err_vs_sites(self, benchmark, matrix_config, run_once):
        result = run_once(benchmark, _site_sweep, matrix_config)
        print()
        print(render_figure(result, "err", "Figure 2(d): error vs sites (PAMAP-like)"))
        errors = result.series("err")
        # The number of sites has no significant impact on accuracy: every
        # protocol stays within its epsilon guarantee at every m.
        epsilon = matrix_config.epsilon
        for protocol, series in errors.items():
            for value in series:
                assert value <= epsilon + 1e-9, (protocol, value)
