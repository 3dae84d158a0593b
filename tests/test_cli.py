"""Tests for the repro-experiments command-line interface."""

from __future__ import annotations

import io
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.evaluation.figures import FIGURES

TINY_HH = ["--num-items", "2000", "--universe-size", "300", "--num-sites", "5",
           "--epsilons", "0.01,0.05"]
TINY_MATRIX = ["--num-rows", "600", "--num-sites", "5",
               "--epsilons", "0.05,0.5", "--sites", "4,8"]


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


class TestParser:
    def test_every_figure_row_has_a_cli_command_and_a_list_line(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        _, listing = run_cli(["list"])
        assert {"figure1", "figure1e", "figure1f", "table1", "figure2",
                "figure3", "figure4", "figure67"} <= set(FIGURES)
        for name, figure in FIGURES.items():
            assert parser.parse_args([name]).command == name
            assert any(line.split()[:1] == [name] and figure.help in line
                       for line in listing.splitlines()), name

    def test_readme_command_list_is_generated_from_the_figure_table(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                              "README.md")
        block = "\n".join(f"repro-experiments {name:<9} # {figure.help}"
                          for name, figure in FIGURES.items())
        with open(readme, encoding="utf-8") as handle:
            assert f"```bash\n{block}\n```" in handle.read(), (
                "README's reproduce-the-paper list drifted; paste:\n" + block)

    def test_site_list_rejects_non_integers(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["figure2", "--sites", "2,4e1"]).sites == [2, 40]
        with pytest.raises(SystemExit):
            parser.parse_args(["figure2", "--sites", "2.7,4"])
        assert "not an integer: 2.7" in capsys.readouterr().err

    def test_epsilon_list_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["figure1", "--epsilons", "0.01,0.02"])
        assert args.epsilons == [0.01, 0.02]

    def test_invalid_epsilon_list_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure1", "--epsilons", "abc"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self):
        code, output = run_cli(["list"])
        assert code == 0
        assert "figure1" in output
        assert "table1" in output

    def test_bench_subcommand_is_gone(self, capsys):
        """Measuring is ``bench/run.py``'s job; the CLI carries no harness."""
        _, output = run_cli(["list"])
        assert "bench" not in output
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        # Importing the CLI pulls in the figure/table half of
        # repro.evaluation only - no measuring module rides along.
        probe = ("import sys, repro.cli; print(' '.join(sorted("
                 "m for m in sys.modules if m.startswith('repro.evaluation.'))))")
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": os.path.dirname(
                                  os.path.dirname(repro.__file__))})
        assert set(done.stdout.split()) <= {"repro.evaluation.figures",
                                            "repro.evaluation.metrics",
                                            "repro.evaluation.sweep",
                                            "repro.evaluation.tables"}

    def test_figure1(self):
        code, output = run_cli(["figure1", *TINY_HH])
        assert code == 0
        assert "Figure 1(a)" in output
        assert "Figure 1(d)" in output
        assert "P1" in output and "P4" in output

    def test_figure1e(self):
        code, output = run_cli(["figure1e", *TINY_HH])
        assert code == 0
        assert "Figure 1(e)" in output

    def test_figure1f(self):
        code, output = run_cli(["figure1f", *TINY_HH, "--beta", "100"])
        assert code == 0
        assert "Figure 1(f)" in output

    def test_table1(self):
        code, output = run_cli(["table1", *TINY_MATRIX])
        assert code == 0
        assert "Table 1" in output
        assert "P3wor" in output
        assert "SVD" in output

    def test_figure2(self):
        code, output = run_cli(["figure2", *TINY_MATRIX])
        assert code == 0
        assert "Figure 2(a)" in output
        assert "Figure 2(d)" in output

    def test_figure4(self):
        code, output = run_cli(["figure4", "--dataset", "msd", *TINY_MATRIX])
        assert code == 0
        assert "Figure 4" in output
        assert "msd" in output

    def test_figure67(self):
        code, output = run_cli(["figure67", "--dataset", "pamap", *TINY_MATRIX])
        assert code == 0
        assert "P4" in output


class TestWireAndWorkerCli:
    def test_worker_parser_and_option_validation(self):
        parser = build_parser()
        args = parser.parse_args(["worker", "--listen", "127.0.0.1:0"])
        assert args.command == "worker" and args.listen == "127.0.0.1:0"
        with pytest.raises(SystemExit):
            parser.parse_args(["worker"])  # --listen is required

    def test_worker_parser_accepts_fault_tolerance_flags(self):
        parser = build_parser()
        args = parser.parse_args(["worker", "--listen", "127.0.0.1:0",
                                  "--standby", "--drain-grace", "2.5"])
        assert args.standby is True
        assert args.drain_grace == 2.5
        args = parser.parse_args(["worker", "--listen", "127.0.0.1:0"])
        assert args.standby is False and args.drain_grace is None

    def test_track_workers_requires_socket_backend(self):
        with pytest.raises(SystemExit, match="socket"):
            run_cli(["track", "--protocol", "hh/P1", "--num-items", "500",
                     "--num-sites", "2", "--epsilon", "0.5",
                     "--workers", "127.0.0.1:1"])

    @pytest.mark.parametrize("command", [
        ["track", "--protocol", "hh/P1", "--num-items", "500"],
        ["serve", "--spec", "hh/P1", "--listen", "127.0.0.1:0"],
    ], ids=["track", "serve"])
    def test_more_shards_than_sites_is_a_usage_error(self, command):
        with pytest.raises(SystemExit, match="shards=4 exceeds num_sites=2"):
            run_cli(command + ["--shards", "4", "--num-sites", "2",
                               "--epsilon", "0.5"])


class TestBenchReportingCli:
    def test_track_over_embedded_socket_worker(self, tmp_path):
        from repro.cluster import WorkerServer

        with WorkerServer() as server:
            host, port = server.address
            path = tmp_path / "socket.ckpt"
            code, output = run_cli([
                "track", "--protocol", "hh/P2", "--num-items", "2000",
                "--universe-size", "300", "--num-sites", "5",
                "--epsilon", "0.05", "--shards", "2", "--backend", "socket",
                "--workers", f"{host}:{port}", "--save", str(path),
            ])
        assert code == 0
        assert "heavy hitters" in output
        assert "ShardedTracker" in output
        assert path.exists()
        from repro.wire import is_wire_data
        assert is_wire_data(path.read_bytes())

    def test_track_shards_1_nonserial_backend_uses_cluster(self):
        code, output = run_cli([
            "track", "--protocol", "hh/P1", "--num-items", "500",
            "--universe-size", "100", "--num-sites", "3",
            "--epsilon", "0.2", "--shards", "1", "--backend", "thread",
        ])
        assert code == 0
        assert "ShardedTracker" in output
