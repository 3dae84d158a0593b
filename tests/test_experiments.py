"""Tests for the figure table (scaled-down versions of every figure/table)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.evaluation import figures
from repro.evaluation.figures import (
    FAMILIES,
    FIGURES,
    HeavyHitterConfig,
    MatrixConfig,
    figure_sweeps,
    table_rows,
    theoretical_message_bounds,
)


def figure1_sweep_epsilon(config):
    return figure_sweeps("figure1", config)["epsilon"]


def figure_sweep_epsilon(dataset, config):
    return figure_sweeps("figure4", config.for_dataset(dataset))["epsilon"]


def table1_rows(config):
    return table_rows(figure_sweeps("table1", config)["dataset"])


@pytest.fixture(scope="module")
def tiny_hh_config():
    return HeavyHitterConfig(num_items=4_000, universe_size=500, num_sites=10,
                             seed=1, epsilon_grid=[5e-3, 5e-2],
                             beta_grid=[1.0, 100.0])


@pytest.fixture(scope="module")
def tiny_matrix_config():
    return MatrixConfig(num_rows=1_200, num_sites=10, seed=1,
                        epsilon_grid=[5e-2, 5e-1], site_grid=[5, 20])


class TestHeavyHitterConfig:
    def test_defaults_match_paper(self):
        config = HeavyHitterConfig()
        assert config.phi == 0.05
        assert config.num_sites == 50
        assert config.beta == 1_000.0
        assert config.skew == 2.0

    def test_scaled(self):
        original = HeavyHitterConfig()
        config = original.scaled(10)
        assert config.num_items == 10
        config.epsilon_grid.append(0.5)
        config.beta_grid.clear()
        assert original.epsilon_grid == HeavyHitterConfig().epsilon_grid
        assert original.beta_grid == HeavyHitterConfig().beta_grid

    def test_build_protocols_labels(self, tiny_hh_config):
        protocols = FAMILIES["hh"].protocols
        assert set(protocols) == {"P1", "P2", "P3", "P4", "P3wr"}

    def test_theoretical_bounds_ordering(self, tiny_hh_config):
        bounds = theoretical_message_bounds(tiny_hh_config, epsilon=0.01)
        assert bounds["P2"] < bounds["P1"]
        assert bounds["P4"] < bounds["P2"]


class TestFigure1:
    def test_epsilon_sweep_shapes(self, tiny_hh_config):
        result = figure1_sweep_epsilon(tiny_hh_config)
        assert result.parameter == "epsilon"
        assert set(result.protocols()) == {"P1", "P2", "P3", "P4"}
        assert result.values() == tiny_hh_config.epsilon_grid
        recall = result.series("recall")
        for protocol, values in recall.items():
            assert all(value >= 0.99 for value in values), protocol

    def test_errors_below_guarantee(self, tiny_hh_config):
        # An absolute estimation error of eps*W translates into a relative
        # error of at most eps/phi on a true phi-heavy hitter.
        result = figure1_sweep_epsilon(tiny_hh_config)
        for record in result.records:
            if record.protocol == "P4":
                continue  # randomized, constant-probability guarantee
            assert record.metrics["err"] <= record.value / tiny_hh_config.phi + 1e-9

    def test_messages_decrease_with_epsilon_for_p2(self, tiny_hh_config):
        result = figure1_sweep_epsilon(tiny_hh_config)
        messages = result.series("msg")["P2"]
        assert messages[0] >= messages[-1]

    def test_error_vs_messages_rows(self, tiny_hh_config):
        rows = table_rows(figure_sweeps("figure1e", tiny_hh_config)["epsilon"])
        assert len(rows) == 4 * len(tiny_hh_config.epsilon_grid)
        assert {"protocol", "epsilon", "msg", "err"} <= set(rows[0])

    def test_beta_sweep(self, tiny_hh_config):
        result = figure_sweeps("figure1f", tiny_hh_config)["beta"]
        assert result.parameter == "beta"
        assert result.values() == tiny_hh_config.beta_grid
        for protocol, series in result.series("recall").items():
            assert all(value >= 0.99 for value in series), protocol


class TestMatrixConfig:
    def test_defaults_match_paper(self):
        config = MatrixConfig()
        assert config.epsilon == 0.1
        assert config.num_sites == 50
        assert config.pamap_rank == 30
        assert config.msd_rank == 50

    def test_rank_for(self):
        config = MatrixConfig()
        assert config.rank_for("pamap") == 30
        assert config.rank_for("msd") == 50

    def test_for_dataset(self):
        original = MatrixConfig()
        config = original.for_dataset("msd")
        assert (config.dataset, original.dataset) == ("msd", "pamap")
        config.epsilon_grid.append(0.9)
        config.site_grid.clear()
        assert original.epsilon_grid == MatrixConfig().epsilon_grid
        assert original.site_grid == MatrixConfig().site_grid

    def test_build_protocols_labels(self, tiny_matrix_config):
        protocols = FAMILIES["matrix"].protocols
        # Table 1 adds its own labels: P3wor (= P3) and the two baselines.
        assert set(protocols) == {"P1", "P2", "P3", "P3wr", "P4",
                                  "P3wor", "FD", "SVD"}


class TestTable1:
    def test_rows_cover_all_methods_and_datasets(self, tiny_matrix_config):
        rows = table1_rows(tiny_matrix_config)
        methods = {row["method"] for row in rows}
        datasets = {row["dataset"] for row in rows}
        assert methods == {"P1", "P2", "P3wor", "P3wr", "FD", "SVD"}
        assert datasets == {"pamap", "msd"}
        assert len(rows) == 12

    def test_qualitative_shape(self, tiny_matrix_config):
        rows = {(row["dataset"], row["method"]): row
                for row in table1_rows(tiny_matrix_config)}
        # The low-rank dataset is essentially exactly recoverable by SVD/FD.
        assert rows[("pamap", "SVD")]["err"] < 1e-4
        assert rows[("pamap", "FD")]["err"] < 1e-3
        # The high-rank dataset keeps residual error even for SVD at rank 50.
        assert rows[("msd", "SVD")]["err"] > 1e-4
        # P2 and P3 save communication relative to the send-everything baselines.
        for dataset in ("pamap", "msd"):
            naive = rows[(dataset, "SVD")]["msg"]
            assert rows[(dataset, "P2")]["msg"] < naive
            assert rows[(dataset, "P3wor")]["msg"] < naive


class TestMatrixSweeps:
    def test_epsilon_sweep(self, tiny_matrix_config):
        result = figure_sweep_epsilon("pamap", tiny_matrix_config)
        assert set(result.protocols()) == {"P1", "P2", "P3"}
        errors = result.series("err")
        # P2's error grows (weakly) with epsilon.
        assert errors["P2"][0] <= errors["P2"][-1] + 1e-6
        # All protocols respect their guarantee.
        for record in result.records:
            assert record.metrics["err"] <= max(record.value, 0.35)

    def test_site_sweep(self, tiny_matrix_config):
        result = figure_sweeps("figure3", tiny_matrix_config)["num_sites"]
        assert result.parameter == "num_sites"
        messages = result.series("msg")
        # P2 and P3 messages grow with the number of sites.
        assert messages["P2"][-1] >= messages["P2"][0]
        assert messages["P3"][-1] >= messages["P3"][0]

    def test_figure4_rows(self, tiny_matrix_config):
        rows = table_rows(figure_sweep_epsilon("pamap", tiny_matrix_config))
        assert {"protocol", "epsilon", "err", "msg"} <= set(rows[0])
        assert len(rows) == 3 * len(tiny_matrix_config.epsilon_grid)

    def test_figure67_includes_p4_and_shows_blowup(self, tiny_matrix_config):
        results = figure_sweeps("figure67", replace(
            tiny_matrix_config, dataset="pamap", epsilon_grid=[5e-2],
            site_grid=[10]))
        eps_sweep = results["epsilon"]
        assert "P4" in eps_sweep.protocols()
        p4_error = eps_sweep.series("err")["P4"][0]
        p2_error = eps_sweep.series("err")["P2"][0]
        assert p4_error > p2_error


class TestFigureTable:
    def test_one_construction_per_cell(self, tiny_hh_config, tiny_matrix_config,
                                       monkeypatch):
        """A cell builds the one protocol it runs - Table 1's FD and SVD too."""
        constructed = []
        create = figures.create

        def counting_create(spec, **params):
            constructed.append(spec)
            return create(spec, **params)

        monkeypatch.setattr(figures, "create", counting_create)
        configs = {"hh": replace(tiny_hh_config, num_items=600),
                   "matrix": replace(tiny_matrix_config, num_rows=200)}
        for name, figure in FIGURES.items():
            constructed.clear()
            results = figure_sweeps(name, configs[figure.family])
            cells = sum(len(result.records) for result in results.values())
            assert len(constructed) == cells, name
            assert cells == len(figure.labels) * sum(
                len(result.values()) for result in results.values()), name

    def test_figure_output_is_pinned(self):
        """The hh ``msg`` columns at the CLI tests' TINY_HH sizes (NumPy + a
        seeded RNG only, so platform-stable)."""
        config = HeavyHitterConfig(num_items=2_000, universe_size=300,
                                   num_sites=5, seed=2014,
                                   epsilon_grid=[0.01, 0.05])
        assert figure_sweeps("figure1", config)["epsilon"].series("msg") == {
            "P1": [5504, 2479], "P2": [2701, 964],
            "P3": [2000, 439], "P4": [1224, 553]}
        assert figure_sweeps("figure1f", config)["beta"].series("msg") == {
            "P1": [14000, 12433, 11802, 11694, 11683],
            "P2": [6000, 5778, 5473, 5446, 5444],
            "P3": [2000, 2000, 2000, 2000, 2000],
            "P4": [2100, 2046, 1977, 1960, 1958]}
