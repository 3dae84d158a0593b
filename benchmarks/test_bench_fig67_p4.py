"""Figures 6 and 7: the appendix-C protocol P4 versus P1-P3.

The paper includes these figures to demonstrate *why* the natural matrix
analogue of the randomized heavy-hitters protocol does not work: its error is
not controlled by ε and can be catastrophic on correlated (low-rank) data.
"""

from __future__ import annotations

from dataclasses import replace

from repro.evaluation.figures import figure_sweeps
from repro.evaluation.tables import render_figure


def _comparison(dataset, config):
    return figure_sweeps("figure67", replace(
        config, dataset=dataset,
        epsilon_grid=config.epsilon_grid[:3],
        site_grid=config.site_grid[:3],
    ))


class TestFigure6PAMAP:
    def test_fig6_p4_on_pamap(self, benchmark, matrix_config, run_once):
        results = run_once(benchmark, _comparison, "pamap", matrix_config)
        eps_sweep = results["epsilon"]
        site_sweep = results["num_sites"]
        print()
        print(render_figure(eps_sweep, "err",
                            "Figure 6(a): error vs epsilon with P4 (PAMAP-like)"))
        print()
        print(render_figure(site_sweep, "err",
                            "Figure 6(b): error vs sites with P4 (PAMAP-like)"))
        errors = eps_sweep.series("err")
        # P4's error is far worse than every sound protocol at small epsilon
        # on the low-rank (highly correlated) dataset ...
        assert errors["P4"][0] > 5 * errors["P2"][0]
        assert errors["P4"][0] > 5 * errors["P1"][0]
        # ... and it violates the epsilon guarantee the others satisfy.
        assert errors["P4"][0] > eps_sweep.values()[0]
        # The failure persists at every site count.
        for value in site_sweep.series("err")["P4"]:
            assert value > matrix_config.epsilon


class TestFigure7MSD:
    def test_fig7_p4_on_msd(self, benchmark, matrix_config, run_once):
        results = run_once(benchmark, _comparison, "msd", matrix_config)
        eps_sweep = results["epsilon"]
        site_sweep = results["num_sites"]
        print()
        print(render_figure(eps_sweep, "err",
                            "Figure 7(a): error vs epsilon with P4 (MSD-like)"))
        print()
        print(render_figure(site_sweep, "err",
                            "Figure 7(b): error vs sites with P4 (MSD-like)"))
        errors = eps_sweep.series("err")
        # On the high-rank dataset the effect is milder (as in the paper) but
        # P4 still trails the sound protocols at small epsilon.
        assert errors["P4"][0] > errors["P1"][0]
        assert errors["P4"][0] > errors["P2"][0]
        for value in site_sweep.series("err")["P4"]:
            assert value > 0.0
