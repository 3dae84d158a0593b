"""Tests for the registry, the ``Tracker`` facade and the deprecated shims."""

from __future__ import annotations

import io

import numpy as np
import pytest

import repro
from repro.api import (
    ApproximationError,
    Covariance,
    Frequency,
    HeavyHitters,
    Norms,
    SketchMatrix,
    TotalWeight,
    available_specs,
    create,
    get_spec,
    registry_rows,
)
from repro.cli import main as cli_main
from repro.data.zipfian import ZipfianStreamGenerator
from repro.heavy_hitters import PrioritySamplingProtocol, ThresholdedUpdatesProtocol
from repro.matrix_tracking import (
    BatchedFrequentDirectionsProtocol,
    CentralizedFDBaseline,
    DeterministicDirectionProtocol,
)
from repro.sketch import FrequentDirections
from repro.streaming import WeightedItemBatch
from repro.streaming.partition import UniformRandomPartitioner
from repro.utils.linalg import covariance_error


def small_stream(seed: int = 3, count: int = 1500) -> WeightedItemBatch:
    generator = ZipfianStreamGenerator(universe_size=200, skew=2.0, beta=50.0,
                                       seed=seed)
    return WeightedItemBatch.from_pairs(generator.generate(count).items)


class TestRegistry:
    def test_all_domains_registered(self):
        specs = available_specs()
        assert "hh/P1" in specs and "matrix/P4" in specs
        assert available_specs("hh") + available_specs("matrix") == specs

    def test_create_builds_the_registered_class(self):
        protocol = create("hh/P2", num_sites=4, epsilon=0.1)
        assert isinstance(protocol, ThresholdedUpdatesProtocol)
        assert protocol.num_sites == 4 and protocol.epsilon == 0.1

    def test_spec_names_are_case_insensitive(self):
        assert get_spec("HH/p3").name == "hh/P3"
        assert get_spec(" matrix/svd ").name == "matrix/SVD"

    def test_unqualified_name_suggests_domains(self):
        with pytest.raises(ValueError, match="hh/P3 or matrix/P3"):
            get_spec("P3")

    def test_unknown_spec_lists_available(self):
        with pytest.raises(ValueError, match="available:"):
            create("hh/P9", num_sites=3, epsilon=0.1)

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="requires parameter.*epsilon"):
            create("hh/P1", num_sites=3)

    def test_unknown_parameter_names_the_schema(self):
        with pytest.raises(ValueError, match="unknown parameter.*epslon"):
            create("hh/P1", num_sites=3, epslon=0.1)

    def test_p2ss_variant_fills_the_paper_site_space(self):
        protocol = create("hh/P2ss", num_sites=8, epsilon=0.1)
        plain = create("hh/P2", num_sites=8, epsilon=0.1)
        assert protocol._sites[0].sketch is not None
        assert plain._sites[0].sketch is None
        expected = ThresholdedUpdatesProtocol.default_site_space(8, 0.1)
        assert protocol._sites[0].sketch.num_counters == expected

    def test_registry_rows_cover_every_spec(self):
        rows = registry_rows()
        assert [row["spec"] for row in rows] == available_specs()
        assert all(row["class"] and row["summary"] for row in rows)

    def test_registry_equals_direct_construction(self):
        """Old-path (direct constructor) and new-path (registry) protocols
        produce identical results over the same stream."""
        batch = small_stream()
        sites = np.arange(len(batch)) % 5
        old = PrioritySamplingProtocol(num_sites=5, epsilon=0.1,
                                       sample_size=100, seed=11)
        new = create("hh/P3", num_sites=5, epsilon=0.1, sample_size=100,
                     seed=11)
        old.observe_batch(sites, batch)
        new.observe_batch(sites, batch)
        assert old.message_counts() == new.message_counts()
        assert old.estimates() == new.estimates()


#: The specs and classes that took ``svd_mode``, with the rest of a
#: minimal valid argument set.
SVD_MODE_SPECS = {
    "matrix/P1": {"epsilon": 0.2},
    "matrix/P2": {"epsilon": 0.2},
    "matrix/FD": {"sketch_size": 4},
}
SVD_MODE_CLASSES = {
    "FrequentDirections": (FrequentDirections,
                           {"dimension": 3, "sketch_size": 2}),
    "BatchedFrequentDirectionsProtocol": (
        BatchedFrequentDirectionsProtocol,
        {"num_sites": 2, "dimension": 3, "epsilon": 0.2}),
    "DeterministicDirectionProtocol": (
        DeterministicDirectionProtocol,
        {"num_sites": 2, "dimension": 3, "epsilon": 0.2}),
    "CentralizedFDBaseline": (CentralizedFDBaseline,
                              {"num_sites": 2, "dimension": 3,
                               "sketch_size": 4}),
}


class TestNoSvdModeKnob:
    """The FD kernel is not selectable: no spec, constructor or property
    takes or reports ``svd_mode``."""

    @pytest.mark.parametrize("spec", sorted(SVD_MODE_SPECS))
    def test_spec_refuses_svd_mode(self, spec):
        params = {"num_sites": 2, "dimension": 3, **SVD_MODE_SPECS[spec]}
        assert not hasattr(create(spec, **params), "svd_mode")
        with pytest.raises(ValueError, match="unknown parameter.*svd_mode"):
            create(spec, svd_mode="auto", **params)
        with pytest.raises(ValueError, match="unknown parameter.*svd_mode"):
            repro.Tracker.create(spec, svd_mode="auto", **params)

    @pytest.mark.parametrize("name", sorted(SVD_MODE_CLASSES))
    def test_constructor_refuses_svd_mode(self, name):
        cls, params = SVD_MODE_CLASSES[name]
        assert not hasattr(cls(**params), "svd_mode")
        with pytest.raises(TypeError, match="svd_mode"):
            cls(svd_mode="auto", **params)

    def test_from_epsilon_refuses_svd_mode(self):
        with pytest.raises(TypeError, match="svd_mode"):
            FrequentDirections.from_epsilon(dimension=3, epsilon=0.5,
                                            svd_mode="auto")


class TestTracker:
    def test_push_and_push_batch_match(self):
        # One site: batch grouping cannot reorder the stream, so the two
        # ingestion paths are exactly message-equivalent.
        batch = small_stream(count=400)
        sites = np.zeros(len(batch), dtype=np.int64)
        one = repro.Tracker.create("hh/P2", num_sites=1, epsilon=0.1)
        for index in range(len(batch)):
            one.push(0, batch[index])
        many = repro.Tracker.create("hh/P2", num_sites=1, epsilon=0.1)
        many.push_batch(sites, batch)
        assert one.items_processed == many.items_processed == len(batch)
        assert one.protocol.message_counts() == many.protocol.message_counts()
        assert (one.query(TotalWeight()).estimate
                == pytest.approx(many.query(TotalWeight()).estimate))

    def test_run_in_instalments_equals_one_run(self):
        batch = small_stream()
        half = 750
        whole = repro.Tracker.create("hh/P3", num_sites=4, epsilon=0.1,
                                     sample_size=80, seed=2, chunk_size=250)
        whole.run(batch)
        split = repro.Tracker.create("hh/P3", num_sites=4, epsilon=0.1,
                                     sample_size=80, seed=2, chunk_size=250)
        split.run(batch[:half])
        split.run(batch[half:])
        assert split.total_messages == whole.total_messages
        assert split.protocol.estimates() == whole.protocol.estimates()

    def test_typed_answers_carry_bounds_and_snapshots(self):
        tracker = repro.Tracker.create("hh/P1", num_sites=4, epsilon=0.1)
        tracker.push_batch([0, 1, 2, 3], [("a", 6.0), ("b", 2.0),
                                          ("a", 4.0), ("c", 1.0)])
        answer = tracker.query(HeavyHitters(phi=0.4))
        assert answer.elements == ("a",)
        assert answer.items_processed == 4
        assert answer.total_messages == tracker.total_messages
        assert answer.error_bound == pytest.approx(
            0.1 * tracker.protocol.estimated_total_weight())
        single = tracker.query(Frequency("a"))
        assert single.estimate == pytest.approx(10.0)

    def test_matrix_queries(self):
        rows = np.random.default_rng(0).standard_normal((400, 6))
        tracker = repro.Tracker.create("matrix/P2", num_sites=3, dimension=6,
                                       epsilon=0.2)
        tracker.run(rows)
        covariance = tracker.query(Covariance())
        assert covariance.estimate.shape == (6, 6)
        assert covariance.error_bound == pytest.approx(
            0.2 * tracker.protocol.estimated_squared_frobenius())
        direction = np.eye(6)[0]
        norms = tracker.query(Norms(direction))
        assert norms.estimate == pytest.approx(
            float(direction @ covariance.estimate @ direction))
        stacked = tracker.query(Norms(np.eye(6)[:2]))
        assert stacked.estimate.shape == (2,)
        assert stacked.estimate[0] == pytest.approx(norms.estimate)
        sketch = tracker.query(SketchMatrix()).estimate
        assert sketch.shape[1] == 6
        measured = tracker.query(ApproximationError())
        assert 0.0 <= measured.estimate <= measured.error_bound + 1e-9
        assert measured.estimate == pytest.approx(covariance_error(rows, sketch),
                                                  rel=1e-12)

    def test_baseline_bounds_are_honest(self):
        """The zero-error baselines must not report the vacuous ε-bound."""
        exact = repro.Tracker.create("hh/exact", num_sites=2)
        exact.push_batch([0, 1], [("a", 3.0), ("b", 1.0)])
        assert exact.query(TotalWeight()).error_bound == 0.0

        rows = np.random.default_rng(2).standard_normal((60, 5))
        svd = repro.Tracker.create("matrix/SVD", num_sites=2, dimension=5)
        svd.run(rows)
        assert svd.query(Covariance()).error_bound == 0.0

        truncated = repro.Tracker.create("matrix/SVD", num_sites=2,
                                         dimension=5, rank=2)
        truncated.run(rows)
        answer = truncated.query(Covariance())
        exact_cov = rows.T @ rows
        spectral_error = np.linalg.norm(exact_cov - answer.estimate, ord=2)
        assert answer.error_bound == pytest.approx(spectral_error)

        fd = repro.Tracker.create("matrix/FD", num_sites=2, dimension=5,
                                  sketch_size=3)
        fd.run(rows)
        frobenius = float((rows ** 2).sum())
        assert fd.query(Covariance()).error_bound == pytest.approx(
            2.0 * frobenius / 3)

    def test_unsound_p4_has_no_error_bound(self):
        rows = np.random.default_rng(1).standard_normal((50, 4))
        tracker = repro.Tracker.create("matrix/P4", num_sites=2, dimension=4,
                                       epsilon=0.2, seed=0)
        tracker.run(rows)
        assert tracker.query(Covariance()).error_bound is None

    def test_query_domain_mismatch_raises(self):
        hh = repro.Tracker.create("hh/P1", num_sites=2, epsilon=0.1)
        with pytest.raises(TypeError, match="matrix-tracking"):
            hh.query(Covariance())
        matrix = repro.Tracker.create("matrix/P1", num_sites=2, dimension=3,
                                      epsilon=0.2)
        with pytest.raises(TypeError, match="heavy-hitter"):
            matrix.query(HeavyHitters(0.1))
        with pytest.raises(TypeError, match="Query"):
            hh.query("heavy_hitters")

    def test_stats_and_repr_show_spec_and_counters(self):
        tracker = repro.Tracker.create("hh/P3", num_sites=4, epsilon=0.1,
                                       sample_size=50, seed=1)
        tracker.push(0, ("x", 2.0))
        stats = tracker.stats()
        assert stats.spec == "hh/P3" and stats.domain == "hh"
        assert stats.items_processed == 1
        assert stats.message_counts["total_messages"] == stats.total_messages
        text = repr(tracker)
        assert "spec='hh/P3'" in text
        assert "epsilon=0.1" in text
        assert "items_processed=1" in text
        assert f"total_messages={tracker.total_messages}" in text

    def test_protocol_repr_includes_key_parameters(self):
        protocol = create("matrix/P2", num_sites=3, dimension=7, epsilon=0.25)
        text = repr(protocol)
        assert "DeterministicDirectionProtocol" in text
        assert "dimension=7" in text and "epsilon=0.25" in text
        assert "items_processed=0" in text and "total_messages=0" in text
        assert isinstance(protocol, DeterministicDirectionProtocol)

    def test_wrapping_a_foreign_protocol_infers_spec(self):
        protocol = ThresholdedUpdatesProtocol(num_sites=2, epsilon=0.1)
        tracker = repro.Tracker(protocol)
        assert tracker.spec == "hh/P2"
        assert tracker.protocol is protocol

    def test_partitioner_site_mismatch_rejected(self):
        protocol = create("hh/P1", num_sites=4, epsilon=0.1)
        with pytest.raises(ValueError, match="sites"):
            repro.Tracker(protocol, partitioner=UniformRandomPartitioner(3))


class TestAnswerSerialisation:
    def test_heavy_hitter_answer_round_trips_through_json(self):
        import json

        tracker = repro.Tracker.create("hh/P1", num_sites=3, epsilon=0.1)
        tracker.push(0, ("cat", 5.0))
        tracker.push(1, ("dog", 2.0))
        answer = tracker.query(HeavyHitters(phi=0.3))
        payload = json.loads(answer.to_json())
        assert payload["answer"] == "HeavyHittersAnswer"
        assert payload["query"] == {"type": "HeavyHitters", "phi": 0.3}
        assert payload["estimate"][0]["element"] == "cat"
        assert payload["estimate"][0]["estimated_weight"] == 5.0
        assert payload["items_processed"] == 2
        assert payload["total_messages"] == answer.total_messages
        assert payload["estimated_total_weight"] == 7.0

    def test_matrix_answers_serialise_arrays_as_lists(self):
        import json

        tracker = repro.Tracker.create("matrix/P2", num_sites=2, dimension=3,
                                       epsilon=0.5)
        tracker.push(0, np.asarray([1.0, 0.0, 0.0]))
        covariance = tracker.query(Covariance())
        payload = json.loads(covariance.to_json())
        assert payload["estimate"][0][0] == pytest.approx(1.0)
        norms = tracker.query(Norms(np.eye(3)))
        decoded = json.loads(norms.to_json())
        assert len(decoded["estimate"]) == 3
        assert isinstance(decoded["query"]["directions"], list)

    def test_unserialisable_labels_fall_back_to_repr(self):
        tracker = repro.Tracker.create("hh/P1", num_sites=2, epsilon=0.5)
        label = object()
        tracker.push(0, (label, 1.0))
        payload = tracker.query(HeavyHitters(phi=0.1)).to_dict()
        assert payload["estimate"][0]["element"] == repr(label)


class TestCli:
    def run_cli(self, argv):
        buffer = io.StringIO()
        code = cli_main(argv, out=buffer)
        return code, buffer.getvalue()

    def test_protocols_subcommand_prints_registry(self):
        code, output = self.run_cli(["protocols"])
        assert code == 0
        for spec in available_specs():
            assert spec in output

    def test_track_heavy_hitters_with_checkpoint(self, tmp_path):
        path = tmp_path / "cli.ckpt"
        code, output = self.run_cli([
            "track", "--protocol", "hh/P2", "--num-items", "2000",
            "--num-sites", "4", "--epsilon", "0.05", "--save", str(path),
        ])
        assert code == 0
        assert "heavy hitters" in output
        assert "answer JSON:" in output
        assert "checkpoint written" in output
        resumed = repro.Tracker.load(path)
        assert resumed.items_processed == 2000

    def test_track_sharded_session_with_cluster_checkpoint(self, tmp_path):
        path = tmp_path / "cluster.ckpt"
        code, output = self.run_cli([
            "track", "--protocol", "hh/P2", "--num-items", "2000",
            "--num-sites", "4", "--epsilon", "0.05",
            "--shards", "3", "--backend", "serial", "--save", str(path),
        ])
        assert code == 0
        assert "ShardedTracker" in output
        assert "repro.ShardedTracker.load" in output
        with repro.ShardedTracker.load(path) as resumed:
            assert resumed.num_shards == 3
            assert resumed.stats().items_processed == 2000

    def test_track_matrix_domain(self):
        code, output = self.run_cli([
            "track", "--protocol", "matrix/P3", "--num-items", "500",
            "--num-sites", "4", "--epsilon", "0.1",
        ])
        assert code == 0
        assert "covariance spectral-error bound" in output

    def test_track_rejects_unknown_spec(self):
        with pytest.raises(SystemExit):
            self.run_cli(["track", "--protocol", "nope/P1"])
