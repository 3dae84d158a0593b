"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's figures and quantify the knobs a user of the
library actually turns:

* the Frequent Directions sketch size ℓ (accuracy vs space),
* the priority-sampling sample size s (accuracy vs communication),
* coordinator-side sketch compression for protocol P2 (space vs accuracy),
* per-site space bounding for heavy-hitters P2 via SpaceSaving.
"""

from __future__ import annotations

from repro import Tracker
from repro.evaluation.figures import load_experiment_dataset
from repro.evaluation.tables import format_table
from repro.heavy_hitters import ThresholdedUpdatesProtocol
from repro.matrix_tracking import (
    CentralizedFDBaseline,
    DeterministicDirectionProtocol,
    MatrixPrioritySamplingProtocol,
)
from repro.data import ZipfianStreamGenerator
from repro.utils.linalg import covariance_error


def _fd_sketch_size_ablation(config):
    dataset = load_experiment_dataset(config, "msd")
    rows = []
    for sketch_size in (10, 20, 40, 80):
        protocol = CentralizedFDBaseline(num_sites=config.num_sites,
                                         dimension=dataset.dimension,
                                         sketch_size=sketch_size)
        Tracker(protocol).run(dataset.rows)
        rows.append({
            "sketch_size": sketch_size,
            "err": covariance_error(dataset.rows, protocol.sketch_matrix()),
            "bound": 2.0 / sketch_size,
        })
    return rows


def _sample_size_ablation(config):
    dataset = load_experiment_dataset(config, "pamap")
    rows = []
    for sample_size in (50, 200, 800):
        protocol = MatrixPrioritySamplingProtocol(
            num_sites=config.num_sites, dimension=dataset.dimension,
            epsilon=config.epsilon, sample_size=sample_size, seed=config.seed)
        Tracker(protocol).run(dataset.rows)
        rows.append({
            "sample_size": sample_size,
            "err": covariance_error(dataset.rows, protocol.sketch_matrix()),
            "msg": protocol.total_messages,
        })
    return rows


def _coordinator_compression_ablation(config):
    dataset = load_experiment_dataset(config, "pamap")
    rows = []
    for sketch_size in (None, 200, 50):
        protocol = DeterministicDirectionProtocol(
            num_sites=config.num_sites, dimension=dataset.dimension,
            epsilon=config.epsilon, coordinator_sketch_size=sketch_size)
        Tracker(protocol).run(dataset.rows)
        rows.append({
            "coordinator_sketch": sketch_size if sketch_size else "exact",
            "err": covariance_error(dataset.rows, protocol.sketch_matrix()),
            "coordinator_rows": protocol.sketch_matrix().shape[0],
            "msg": protocol.total_messages,
        })
    return rows


def _site_space_ablation(hh_config):
    generator = ZipfianStreamGenerator(universe_size=hh_config.universe_size,
                                       skew=hh_config.skew, beta=hh_config.beta,
                                       seed=hh_config.seed)
    sample = generator.generate(hh_config.num_items)
    rows = []
    for site_space in (None, 2000, 200):
        protocol = ThresholdedUpdatesProtocol(num_sites=hh_config.num_sites,
                                              epsilon=0.01, site_space=site_space)
        for index, (element, weight) in enumerate(sample.items):
            protocol.process(index % hh_config.num_sites, element, weight)
        heaviest = max(sample.element_weights, key=sample.element_weights.get)
        truth = sample.element_weights[heaviest]
        rows.append({
            "site_space": site_space if site_space else "exact",
            "top_element_rel_err": abs(protocol.estimate(heaviest) - truth) / truth,
            "msg": protocol.total_messages,
        })
    return rows


class TestAblations:
    def test_fd_sketch_size(self, benchmark, matrix_config, run_once):
        rows = run_once(benchmark, _fd_sketch_size_ablation, matrix_config)
        print()
        print(format_table(rows, title="Ablation: FD sketch size (MSD-like)"))
        # Error decreases monotonically with the sketch size and respects the
        # 2/l worst-case bound.
        errors = [row["err"] for row in rows]
        assert errors == sorted(errors, reverse=True)
        for row in rows:
            assert row["err"] <= row["bound"] + 1e-9

    def test_sampling_sample_size(self, benchmark, matrix_config, run_once):
        rows = run_once(benchmark, _sample_size_ablation, matrix_config)
        print()
        print(format_table(rows, title="Ablation: P3 sample size (PAMAP-like)"))
        # Larger samples cost more messages and (weakly) reduce error.
        messages = [row["msg"] for row in rows]
        assert messages == sorted(messages)
        assert rows[-1]["err"] <= rows[0]["err"] + 0.05

    def test_coordinator_compression(self, benchmark, matrix_config, run_once):
        rows = run_once(benchmark, _coordinator_compression_ablation, matrix_config)
        print()
        print(format_table(rows,
                           title="Ablation: coordinator compression for P2 (PAMAP-like)"))
        exact, medium, small = rows
        # Compression caps the coordinator's memory ...
        assert medium["coordinator_rows"] <= 200
        assert small["coordinator_rows"] <= 50
        # ... at a bounded accuracy cost.
        assert medium["err"] <= exact["err"] + 2.0 / 200 + 1e-9
        assert small["err"] <= exact["err"] + 2.0 / 50 + 1e-9

    def test_site_space_bounding(self, benchmark, hh_config, run_once):
        rows = run_once(benchmark, _site_space_ablation, hh_config)
        print()
        print(format_table(rows, title="Ablation: per-site SpaceSaving for HH P2"))
        # Bounding per-site space leaves the heaviest element's estimate
        # essentially unchanged on a skewed stream.
        for row in rows:
            assert row["top_element_rel_err"] <= 0.05
