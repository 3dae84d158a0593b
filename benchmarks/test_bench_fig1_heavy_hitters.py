"""Figure 1 (a)-(f): distributed weighted heavy hitters on a Zipfian stream.

Each benchmark reruns the corresponding panel of Figure 1 of the paper
(recall / precision / err / msg versus ε, the err-vs-msg trade-off, and msg
versus the weight bound β) at laptop scale, prints the regenerated series and
asserts the qualitative shape reported by the paper.
"""

from __future__ import annotations

from repro.evaluation.figures import figure_sweeps, table_rows
from repro.evaluation.tables import format_table, render_figure


def _epsilon_sweep(hh_config):
    return figure_sweeps("figure1", hh_config)["epsilon"]


def figure1e_error_vs_messages(hh_config):
    return table_rows(figure_sweeps("figure1e", hh_config)["epsilon"])


def figure1f_messages_vs_beta(hh_config):
    return figure_sweeps("figure1f", hh_config)["beta"]


class TestFigure1EpsilonSweep:
    def test_fig1a_recall_vs_eps(self, benchmark, hh_config, run_once):
        result = run_once(benchmark, _epsilon_sweep, hh_config)
        print()
        print(render_figure(result, "recall", "Figure 1(a): recall vs epsilon"))
        # Paper: recall is 1.0 for every protocol at every epsilon.
        for protocol, series in result.series("recall").items():
            assert all(value >= 0.999 for value in series), protocol

    def test_fig1b_precision_vs_eps(self, benchmark, hh_config, run_once):
        result = run_once(benchmark, _epsilon_sweep, hh_config)
        print()
        print(render_figure(result, "precision", "Figure 1(b): precision vs epsilon"))
        precision = result.series("precision")
        for protocol, series in precision.items():
            # Paper: precision 1.0 for epsilon <= 0.01, may dip for larger
            # epsilon because of the phi - eps/2 report rule.
            for epsilon, value in zip(result.values(), series):
                if epsilon <= 0.01:
                    assert value >= 0.99, (protocol, epsilon, value)
                else:
                    assert value >= 0.5, (protocol, epsilon, value)

    def test_fig1c_err_vs_eps(self, benchmark, hh_config, run_once):
        result = run_once(benchmark, _epsilon_sweep, hh_config)
        print()
        print(render_figure(result, "err", "Figure 1(c): avg error of true HH vs epsilon"))
        errors = result.series("err")
        for protocol in ("P1", "P2", "P3"):
            series = errors[protocol]
            # Paper: measured error stays well below the guarantee eps/phi.
            for epsilon, value in zip(result.values(), series):
                assert value <= epsilon / hh_config.phi, (protocol, epsilon, value)
        # P1 is (near-)exact at small epsilon on skewed data.
        assert errors["P1"][0] <= 1e-3

    def test_fig1d_msg_vs_eps(self, benchmark, hh_config, run_once):
        result = run_once(benchmark, _epsilon_sweep, hh_config)
        print()
        print(render_figure(result, "msg", "Figure 1(d): messages vs epsilon"))
        messages = result.series("msg")
        # Paper: message counts drop by orders of magnitude as epsilon grows,
        # and P2 is cheaper than P1 at the same epsilon.
        for protocol in ("P1", "P2", "P3", "P4"):
            assert messages[protocol][-1] < messages[protocol][0]
        for index in range(len(result.values())):
            assert messages["P2"][index] <= messages["P1"][index]
        # At the largest epsilon every protocol beats forwarding the stream.
        for protocol in ("P2", "P3", "P4"):
            assert messages[protocol][-1] < hh_config.num_items


class TestFigure1Tradeoff:
    def test_fig1e_err_vs_msg(self, benchmark, hh_config, run_once):
        rows = run_once(benchmark, figure1e_error_vs_messages, hh_config)
        print()
        print(format_table(rows, title="Figure 1(e): error vs messages trade-off"))
        # Within each protocol, spending more messages (smaller epsilon) never
        # hurts the measured error by much: the cheapest configuration should
        # not be the most accurate one.
        by_protocol = {}
        for row in rows:
            by_protocol.setdefault(row["protocol"], []).append(row)
        for protocol, entries in by_protocol.items():
            entries.sort(key=lambda entry: entry["msg"])
            assert entries[-1]["err"] <= entries[0]["err"] + 0.05, protocol


class TestFigure1Beta:
    def test_fig1f_msg_vs_beta(self, benchmark, hh_config, run_once):
        result = run_once(benchmark, figure1f_messages_vs_beta, hh_config)
        print()
        print(render_figure(result, "msg", "Figure 1(f): messages vs beta"))
        messages = result.series("msg")
        # Paper: all protocols are robust to the weight upper bound beta —
        # message counts change by well under an order of magnitude across
        # four orders of magnitude of beta.
        for protocol, series in messages.items():
            low, high = min(series), max(series)
            assert high <= 10 * max(1, low), (protocol, series)
        # Accuracy is maintained at every beta.
        for protocol, series in result.series("recall").items():
            assert all(value >= 0.999 for value in series), protocol
