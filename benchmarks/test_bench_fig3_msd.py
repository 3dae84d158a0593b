"""Figures 3(a)-(d): matrix tracking protocols P1-P3 on the MSD-like dataset.

Same sweeps as Figure 2 but on the high-rank dataset surrogate, where even the
offline SVD keeps residual error.
"""

from __future__ import annotations

from repro.evaluation.figures import FIGURES, sweep
from repro.evaluation.tables import render_figure

FIGURE = FIGURES["figure3"]


def _epsilon_sweep(config):
    return sweep("matrix", "epsilon", config.epsilon_grid, FIGURE.labels,
                 config.for_dataset(FIGURE.dataset))


def _site_sweep(config):
    return sweep("matrix", "num_sites", config.site_grid, FIGURE.labels,
                 config.for_dataset(FIGURE.dataset))


class TestFigure3EpsilonSweep:
    def test_fig3a_err_vs_eps(self, benchmark, matrix_config, run_once):
        result = run_once(benchmark, _epsilon_sweep, matrix_config)
        print()
        print(render_figure(result, "err", "Figure 3(a): error vs epsilon (MSD-like)"))
        errors = result.series("err")
        epsilons = result.values()
        for protocol in ("P1", "P2", "P3"):
            series = errors[protocol]
            assert series[0] <= series[-1] + 1e-6, protocol
            for epsilon, value in zip(epsilons, series):
                assert value <= epsilon + 1e-9, (protocol, epsilon, value)

    def test_fig3b_msg_vs_eps(self, benchmark, matrix_config, run_once):
        result = run_once(benchmark, _epsilon_sweep, matrix_config)
        print()
        print(render_figure(result, "msg", "Figure 3(b): messages vs epsilon (MSD-like)"))
        messages = result.series("msg")
        for protocol in ("P1", "P2", "P3"):
            assert messages[protocol][-1] < messages[protocol][0], protocol
        for index in range(len(result.values())):
            assert messages["P1"][index] > messages["P2"][index]


class TestFigure3SiteSweep:
    def test_fig3c_msg_vs_sites(self, benchmark, matrix_config, run_once):
        result = run_once(benchmark, _site_sweep, matrix_config)
        print()
        print(render_figure(result, "msg", "Figure 3(c): messages vs sites (MSD-like)"))
        messages = result.series("msg")
        for protocol in ("P2", "P3"):
            assert messages[protocol][-1] > messages[protocol][0], protocol

    def test_fig3d_err_vs_sites(self, benchmark, matrix_config, run_once):
        result = run_once(benchmark, _site_sweep, matrix_config)
        print()
        print(render_figure(result, "err", "Figure 3(d): error vs sites (MSD-like)"))
        errors = result.series("err")
        epsilon = matrix_config.epsilon
        for protocol, series in errors.items():
            for value in series:
                assert value <= epsilon + 1e-9, (protocol, value)
