"""Figure 4: the communication / accuracy trade-off frontier on both datasets.

The paper tunes ε per protocol so that all protocols are compared at matched
error (or matched communication); the same frontier is obtained here by
sweeping ε and reading each protocol's (err, msg) pairs.
"""

from __future__ import annotations

from repro.evaluation.figures import figure_sweeps, table_rows
from repro.evaluation.tables import format_table


def _frontier(dataset, config):
    return table_rows(
        figure_sweeps("figure4", config.for_dataset(dataset))["epsilon"])


def _by_protocol(rows):
    grouped = {}
    for row in rows:
        grouped.setdefault(row["protocol"], []).append(row)
    for entries in grouped.values():
        entries.sort(key=lambda entry: entry["msg"])
    return grouped


class TestFigure4:
    def test_fig4a_pamap_tradeoff(self, benchmark, matrix_config, run_once):
        rows = run_once(benchmark, _frontier, "pamap", matrix_config)
        print()
        print(format_table(rows, title="Figure 4(a): messages vs error (PAMAP-like)"))
        grouped = _by_protocol(rows)
        # Within each protocol, more communication means (weakly) less error.
        for protocol, entries in grouped.items():
            assert entries[-1]["err"] <= entries[0]["err"] + 1e-6, protocol
        # P1 achieves the smallest error overall; P2/P3 reach small message
        # counts that P1 never reaches.
        best_error = {name: min(e["err"] for e in entries)
                      for name, entries in grouped.items()}
        fewest_msgs = {name: min(e["msg"] for e in entries)
                       for name, entries in grouped.items()}
        assert best_error["P1"] <= min(best_error.values()) + 1e-9
        assert min(fewest_msgs["P2"], fewest_msgs["P3"]) < fewest_msgs["P1"]

    def test_fig4b_msd_tradeoff(self, benchmark, matrix_config, run_once):
        rows = run_once(benchmark, _frontier, "msd", matrix_config)
        print()
        print(format_table(rows, title="Figure 4(b): messages vs error (MSD-like)"))
        grouped = _by_protocol(rows)
        for protocol, entries in grouped.items():
            assert entries[-1]["err"] <= entries[0]["err"] + 1e-6, protocol
        best_error = {name: min(e["err"] for e in entries)
                      for name, entries in grouped.items()}
        fewest_msgs = {name: min(e["msg"] for e in entries)
                       for name, entries in grouped.items()}
        assert best_error["P1"] <= min(best_error.values()) + 1e-9
        assert min(fewest_msgs["P2"], fewest_msgs["P3"]) < fewest_msgs["P1"]
