"""Unit tests for the evaluation layer (metrics, sweeps, tables)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.data.synthetic_matrix import make_msd_like
from repro.evaluation.metrics import (
    average_relative_error,
    evaluate_heavy_hitter_protocol,
    evaluate_matrix_protocol,
    exact_heavy_hitters,
    heavy_hitter_precision,
    heavy_hitter_recall,
    matrix_error_from_covariances,
    total_weight_relative_error,
)
from repro.evaluation.sweep import ParameterSweep, SweepResult, SweepRecord
from repro.evaluation.tables import (
    FLOAT64_FLOOR,
    format_series,
    format_table,
    format_value,
    render_figure,
)
from repro.heavy_hitters.exact import ExactForwardingProtocol
from repro.matrix_tracking.baselines import CentralizedSVDBaseline


class TestHeavyHitterMetrics:
    def test_exact_heavy_hitters(self):
        weights = {"a": 60.0, "b": 30.0, "c": 10.0}
        assert exact_heavy_hitters(weights, 0.25) == ["a", "b"]
        assert exact_heavy_hitters(weights, 0.7) == []
        assert exact_heavy_hitters({}, 0.1) == []

    def test_recall(self):
        assert heavy_hitter_recall(["a", "b"], ["a", "b", "c"]) == pytest.approx(2 / 3)
        assert heavy_hitter_recall([], []) == 1.0
        assert heavy_hitter_recall(["x"], []) == 1.0

    def test_precision(self):
        assert heavy_hitter_precision(["a", "x"], ["a", "b"]) == pytest.approx(0.5)
        assert heavy_hitter_precision([], ["a"]) == 1.0

    def test_average_relative_error(self):
        estimates = {"a": 90.0, "b": 40.0}
        truth = {"a": 100.0, "b": 50.0, "c": 10.0}
        assert average_relative_error(estimates, truth, ["a", "b"]) == pytest.approx(
            (0.1 + 0.2) / 2)
        assert average_relative_error(estimates, truth, []) == 0.0

    def test_total_weight_relative_error(self):
        assert total_weight_relative_error(90.0, 100.0) == pytest.approx(0.1)
        assert total_weight_relative_error(5.0, 0.0) == 0.0

    def test_evaluate_protocol_end_to_end(self, zipf_sample):
        protocol = ExactForwardingProtocol(num_sites=4)
        for index, (element, weight) in enumerate(zipf_sample.items):
            protocol.process(index % 4, element, weight)
        evaluation = evaluate_heavy_hitter_protocol(
            protocol, zipf_sample.element_weights, phi=0.05,
            total_weight=zipf_sample.total_weight, name="exact")
        assert evaluation.recall == 1.0
        assert evaluation.precision == 1.0
        assert evaluation.average_error == pytest.approx(0.0, abs=1e-12)
        assert evaluation.messages == len(zipf_sample.items)
        record = evaluation.as_dict()
        assert record["protocol"] == "exact"
        assert record["msg"] == evaluation.messages


class TestMatrixMetrics:
    def test_error_from_covariances(self, rng):
        a = rng.standard_normal((40, 6))
        b = a[:20]
        expected = np.linalg.norm(a.T @ a - b.T @ b, 2) / np.sum(a ** 2)
        observed = matrix_error_from_covariances(a.T @ a, b, float(np.sum(a ** 2)))
        assert observed == pytest.approx(expected)
        assert matrix_error_from_covariances(a.T @ a, np.zeros((0, 6)), 0.0) == 0.0

    def test_evaluate_matrix_protocol(self, rng):
        rows = rng.standard_normal((60, 5))
        protocol = CentralizedSVDBaseline(num_sites=3, dimension=5)
        for index in range(rows.shape[0]):
            protocol.process(index % 3, rows[index])
        evaluation = evaluate_matrix_protocol(protocol, rows, name="svd")
        assert evaluation.error <= 1e-10
        assert evaluation.messages == 60
        assert evaluation.sketch_rows == 60
        assert evaluation.frobenius_estimate_error <= 1e-12
        assert evaluation.as_dict()["protocol"] == "svd"

    def test_evaluate_with_explicit_original(self, rng):
        rows = rng.standard_normal((30, 4))
        protocol = CentralizedSVDBaseline(num_sites=2, dimension=4, rank=1)
        for index in range(rows.shape[0]):
            protocol.process(index % 2, rows[index])
        evaluation = evaluate_matrix_protocol(protocol, original=rows)
        assert evaluation.error > 0.0


class TestParameterSweep:
    def _toy_sweep(self):
        sweep = ParameterSweep(parameter="epsilon", values=[0.1, 0.2])
        factories = {
            "double": lambda value: ("double", value),
            "triple": lambda value: ("triple", value),
        }

        def run_one(protocol, value):
            name, _ = protocol
            factor = 2 if name == "double" else 3
            return {"err": value * factor, "msg": int(100 / value)}

        return sweep.run(factories, run_one)

    def test_records_and_series(self):
        result = self._toy_sweep()
        assert len(result.records) == 4
        assert result.protocols() == ["double", "triple"]
        assert result.values() == [0.1, 0.2]
        series = result.series("err")
        assert series["double"] == pytest.approx([0.2, 0.4])
        assert series["triple"] == pytest.approx([0.3, 0.6])

    def test_lookup_and_rows(self):
        result = self._toy_sweep()
        cell = result.lookup("double", 0.2)
        assert cell.metrics["err"] == pytest.approx(0.4)
        assert result.lookup("double", 99) is None
        rows = result.rows()
        assert len(rows) == 4
        assert {"protocol", "epsilon", "err", "msg"} <= set(rows[0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ParameterSweep(parameter="", values=[1])
        with pytest.raises(ValueError):
            ParameterSweep(parameter="x", values=[])


class TestTables:
    def test_format_value(self):
        assert format_value(0.0) == "0"
        assert format_value(1.5) == "1.5"
        assert "e" in format_value(1e-7)
        assert format_value(None) == "None"
        assert format_value(12) == "12"

    def test_summation_noise_prints_as_zero(self):
        """P3 keeps every row of a short MSD stand-in, so its err is 0 up to
        summation order: two row orders must render one text."""
        dataset = make_msd_like(num_rows=1000, seed=11)
        errors, texts = [], []
        for rows in (dataset.rows, dataset.rows[::-1]):
            rows = np.ascontiguousarray(rows)
            tracker = repro.Tracker.create("matrix/P3", num_sites=5,
                                           dimension=dataset.dimension,
                                           epsilon=0.05, seed=3)
            tracker.run(rows)
            evaluation = evaluate_matrix_protocol(tracker.protocol, rows)
            assert evaluation.sketch_rows == rows.shape[0]
            errors.append(evaluation.error)
            texts.append(format_table([evaluation.as_dict()],
                                      columns=("protocol", "err", "msg")))
        assert texts[0] == texts[1]
        assert 0.0 <= max(errors) < FLOAT64_FLOOR
        assert format_value(-1e-17) == format_value(1e-17) == "0"
        assert format_value(1e-15) == "1.000e-15"

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 0.5}, {"a": 2, "b": 1e-9}], title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_series(self):
        text = format_series([0.1, 0.2], {"P1": [1, 2], "P2": [3, 4]},
                             x_label="epsilon", y_label="err")
        assert "epsilon" in text
        assert "P1" in text and "P2" in text

    def test_render_figure(self):
        result = SweepResult(parameter="epsilon", records=[
            SweepRecord("P1", "epsilon", 0.1, {"err": 0.01}),
            SweepRecord("P1", "epsilon", 0.2, {"err": 0.02}),
        ])
        text = render_figure(result, "err", title="figure test")
        assert "figure test" in text
        assert "P1" in text
