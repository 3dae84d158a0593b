"""Table 1: error and message counts on the PAMAP-like and MSD-like datasets.

Regenerates the six methods of the paper's Table 1 (P1, P2, P3wor, P3wr and
the send-everything FD / SVD baselines) on both dataset surrogates, prints the
table, and asserts the qualitative findings the paper draws from it.
"""

from __future__ import annotations

from repro.evaluation.figures import figure_sweeps, table_rows
from repro.evaluation.tables import format_table


def table1_rows(config):
    return table_rows(figure_sweeps("table1", config)["dataset"])


class TestTable1:
    def test_table1(self, benchmark, matrix_config, run_once):
        rows = run_once(benchmark, table1_rows, matrix_config)
        print()
        print(format_table(
            rows,
            columns=["dataset", "method", "err", "msg", "sketch_rows", "rank"],
            title="Table 1: matrix tracking on PAMAP-like (k=30) and MSD-like (k=50)",
        ))
        cells = {(row["dataset"], row["method"]): row for row in rows}

        for dataset in ("pamap", "msd"):
            naive_messages = cells[(dataset, "SVD")]["msg"]
            # P2 and both P3 variants use far fewer messages than sending
            # every row to the coordinator.
            assert cells[(dataset, "P2")]["msg"] < 0.8 * naive_messages
            assert cells[(dataset, "P3wor")]["msg"] < 0.8 * naive_messages
            # P1 is the most accurate distributed protocol but also the most
            # communication hungry (comparable to, or above, the naive count).
            protocol_errors = {name: cells[(dataset, name)]["err"]
                               for name in ("P1", "P2", "P3wor", "P3wr")}
            assert min(protocol_errors, key=protocol_errors.get) == "P1"
            assert cells[(dataset, "P1")]["msg"] >= 0.8 * naive_messages
            # Without-replacement sampling dominates with-replacement sampling
            # (fewer messages and at least comparable error), as in the paper.
            assert (cells[(dataset, "P3wor")]["msg"]
                    < cells[(dataset, "P3wr")]["msg"])
            assert (cells[(dataset, "P3wor")]["err"]
                    <= cells[(dataset, "P3wr")]["err"] + 0.02)

        # Dataset character: the low-rank surrogate is recovered almost
        # exactly by the offline baselines, the high-rank one is not.
        assert cells[("pamap", "SVD")]["err"] < 1e-5
        assert cells[("pamap", "FD")]["err"] < 1e-4
        assert cells[("msd", "SVD")]["err"] > 1e-4
        assert cells[("msd", "FD")]["err"] > cells[("msd", "SVD")]["err"] - 1e-9
