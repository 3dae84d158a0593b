"""Command-line interface for regenerating the paper's experiments.

Installs as the console script ``repro-experiments`` (see ``pyproject.toml``)
and can also be invoked as ``python -m repro.cli``.  Each sub-command
regenerates one table or figure of the paper with configurable workload sizes
and prints the result as a text table, so the evaluation can be reproduced
without going through pytest.

Protocols are resolved through the :mod:`repro.api` registry by spec name
(``--protocol hh/P3``); ``repro-experiments protocols`` prints the registry
table and ``repro-experiments track`` runs one ad-hoc tracking session with
optional checkpointing.

Examples
--------
::

    repro-experiments figure1 --num-items 50000 --num-sites 50
    repro-experiments table1 --num-rows 8000
    repro-experiments figure2 --dataset pamap --num-rows 6000
    repro-experiments figure67 --dataset pamap
    repro-experiments protocols
    repro-experiments track --protocol hh/P3 --num-items 50000 --phi 0.05
    repro-experiments worker --listen 0.0.0.0:7071
    repro-experiments worker --listen 0.0.0.0:7071 --tls-cert server.pem \
        --tls-key server.key --auth-token s3cret
    repro-experiments track --protocol hh/P2 --shards 2 --backend socket \
        --workers host-a:7071,host-b:7071
    repro-experiments serve --spec hh/P2 --shards 2 --listen 127.0.0.1:8080
    repro-experiments bench --shards 1,2 --backend process
    repro-experiments bench --gateway --gateway-clients 1,8,32 --json out.json
    repro-experiments list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .api import (
    Covariance,
    FrobeniusSquared,
    HeavyHitters,
    ShardedTracker,
    Tracker,
    available_backends,
    available_specs,
    backend_registry_rows,
    get_spec,
    registry_rows,
)
from .evaluation.tables import format_table, render_figure
from .evaluation.throughput import (
    BENCH_CHUNK_SIZE,
    HH_BENCH_PROTOCOLS,
    MATRIX_BENCH_SPECS,
    measure_sharded_throughput,
    sharded_report_rows,
    throughput_report_rows,
)
from .experiments.config import HeavyHitterConfig, MatrixConfig
from .experiments.heavy_hitters_experiments import (
    figure1_sweep_epsilon,
    figure1e_error_vs_messages,
    figure1f_messages_vs_beta,
)
from .experiments.matrix_experiments import (
    figure4_tradeoff,
    figure67_p4_comparison,
    figure_sweep_epsilon,
    figure_sweep_sites,
    table1_rows,
)

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "figure1": "Heavy hitters: recall/precision/err/msg vs epsilon (panels a-d)",
    "figure1e": "Heavy hitters: error vs messages trade-off (panel e)",
    "figure1f": "Heavy hitters: messages vs beta (panel f)",
    "table1": "Matrix tracking: err and msg for all methods on both datasets",
    "figure2": "Matrix tracking on the PAMAP-like dataset (epsilon and site sweeps)",
    "figure3": "Matrix tracking on the MSD-like dataset (epsilon and site sweeps)",
    "figure4": "Matrix tracking: messages vs error frontier",
    "figure67": "Appendix-C protocol P4 against P1-P3",
    "bench": "Ingestion throughput: per-item vs batched engine (items/sec)",
    "protocols": "The protocol registry: spec names, classes and parameters",
    "track": "Run one tracking session for a registry spec (--protocol hh/P3)",
    "worker": "Host shard sessions for the socket backend (--listen HOST:PORT)",
    "serve": "Serve a tracking session over HTTP/JSON (--spec hh/P2 "
             "--listen HOST:PORT)",
}


def _parse_chunk_size(text: str) -> Optional[int]:
    if text.lower() in ("none", "0"):
        return None
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("chunk size must be non-negative")
    return value


def _parse_float_list(text: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _parse_int_list(text: str) -> List[int]:
    return [int(value) for value in _parse_float_list(text)]


def _parse_bench_protocols(text: str, domain: str, known) -> List[str]:
    """Parse a comma-separated bench protocol list.

    Accepts both the bench's bare labels (``P1``) and registry spec names
    (``hh/P1`` / ``matrix/P1``) so the CLI vocabulary matches ``--protocol``
    everywhere.
    """
    names = []
    for part in text.split(","):
        name = part.strip()
        if not name:
            continue
        if name.lower().startswith(domain + "/"):
            name = name.split("/", 1)[1]
        names.append(name.upper())
    if not names:
        raise argparse.ArgumentTypeError("expected at least one protocol name")
    unknown = [name for name in names if name not in known]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown protocol(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(known))}"
        )
    return names


def _parse_protocol_list(text: str) -> List[str]:
    return _parse_bench_protocols(text, "hh", HH_BENCH_PROTOCOLS)


def _parse_matrix_protocol_list(text: str) -> List[str]:
    return _parse_bench_protocols(text, "matrix", MATRIX_BENCH_SPECS)


def _parse_spec(text: str) -> str:
    try:
        return get_spec(text).name
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Continuous Matrix "
                    "Approximation on Distributed Data' (VLDB 2014).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="List the available experiments.")

    def add_hh_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--num-items", type=int, default=30_000,
                         help="stream length (paper: 10^7)")
        sub.add_argument("--num-sites", type=int, default=50,
                         help="number of sites m (paper: 50)")
        sub.add_argument("--universe-size", type=int, default=10_000,
                         help="element universe size")
        sub.add_argument("--beta", type=float, default=1_000.0,
                         help="weight upper bound (paper: 1000)")
        sub.add_argument("--phi", type=float, default=0.05,
                         help="heavy hitter threshold (paper: 0.05)")
        sub.add_argument("--epsilons", type=_parse_float_list,
                         default=[1e-3, 5e-3, 1e-2, 5e-2],
                         help="comma-separated epsilon grid")
        sub.add_argument("--seed", type=int, default=2014)
        sub.add_argument("--chunk-size", type=_parse_chunk_size, default=4096,
                         help="engine chunk size ('none' = item-at-a-time)")

    def add_matrix_options(sub: argparse.ArgumentParser,
                           with_dataset: bool = True) -> None:
        if with_dataset:
            sub.add_argument("--dataset", choices=["pamap", "msd"], default="pamap",
                             help="dataset surrogate to use")
        sub.add_argument("--num-rows", type=int, default=6_000,
                         help="number of matrix rows (paper: 629k / 300k)")
        sub.add_argument("--num-sites", type=int, default=50,
                         help="number of sites m (paper: 50)")
        sub.add_argument("--epsilons", type=_parse_float_list,
                         default=[5e-3, 1e-2, 5e-2, 1e-1, 5e-1],
                         help="comma-separated epsilon grid")
        sub.add_argument("--sites", type=_parse_int_list, default=[10, 25, 50, 100],
                         help="comma-separated site-count grid")
        sub.add_argument("--seed", type=int, default=2014)
        sub.add_argument("--chunk-size", type=_parse_chunk_size, default=4096,
                         help="engine chunk size ('none' = item-at-a-time)")

    def add_logging_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--log-json", action="store_true",
                         help="emit structured JSON logs (one object per "
                              "line on stderr) with request trace IDs")
        sub.add_argument("--log-level", default="info",
                         choices=["debug", "info", "warning", "error"],
                         help="log threshold for --log-json (debug includes "
                              "one line per shard command frame)")

    for name in ("figure1", "figure1e", "figure1f"):
        sub = subparsers.add_parser(name, help=_EXPERIMENTS[name])
        add_hh_options(sub)

    sub = subparsers.add_parser("table1", help=_EXPERIMENTS["table1"])
    add_matrix_options(sub, with_dataset=False)

    for name in ("figure2", "figure3", "figure4", "figure67"):
        sub = subparsers.add_parser(name, help=_EXPERIMENTS[name])
        add_matrix_options(sub, with_dataset=(name in ("figure4", "figure67")))

    sub = subparsers.add_parser("bench", help=_EXPERIMENTS["bench"])
    sub.add_argument("--num-items", type=int, default=1_000_000,
                     help="Zipfian stream length for the heavy-hitter workload")
    sub.add_argument("--num-rows", type=int, default=100_000,
                     help="row count for the synthetic-matrix workload")
    sub.add_argument("--chunk-size", type=int, default=BENCH_CHUNK_SIZE,
                     help="engine chunk size for the batched path")
    sub.add_argument("--protocols", type=_parse_protocol_list,
                     default=["P1", "P2", "P3"],
                     help="comma-separated heavy-hitter protocols to bench "
                          f"(choices: {','.join(sorted(HH_BENCH_PROTOCOLS))})")
    sub.add_argument("--matrix-protocols", type=_parse_matrix_protocol_list,
                     default=["P1"],
                     help="comma-separated matrix protocols to bench "
                          f"(choices: {','.join(sorted(MATRIX_BENCH_SPECS))})")
    sub.add_argument("--svd-mode", default=None,
                     choices=["auto", "exact", "gram", "randomized"],
                     help="pin the FD compaction kernel for the matrix "
                          "workloads (default: the protocol default, auto; "
                          "'exact' reproduces the historical LAPACK path)")
    sub.add_argument("--shards", type=_parse_int_list, default=None,
                     metavar="N1,N2,...",
                     help="also measure the sharded scaling curve at these "
                          "shard counts (e.g. 1,2,4)")
    sub.add_argument("--backend", choices=available_backends(),
                     default="process",
                     help="engine backend for the --shards scaling curve")
    sub.add_argument("--kill-shard-at", type=int, default=None, metavar="N",
                     help="chaos mode for the --shards curve on the socket "
                          "backend: after N items have been pushed, kill one "
                          "worker's live sessions mid-stream and let the "
                          "backend heal by replay; the run fails unless the "
                          "healed cluster accounts for every item")
    sub.add_argument("--json", metavar="PATH", default=None, dest="json_path",
                     help="also write the measured rows as JSON to PATH "
                          "(machine-readable; what CI archives as artifacts)")
    sub.add_argument("--profile", action="store_true",
                     help="run the measurements under cProfile and print the "
                          "top 20 functions by cumulative time")
    sub.add_argument("--gateway", action="store_true",
                     help="also load-test the HTTP serving gateway: mixed "
                          "push+query traffic at --gateway-clients "
                          "concurrency levels, reporting QPS and p50/p99 "
                          "latency (rows land under 'gateway' in --json)")
    sub.add_argument("--gateway-clients", type=_parse_int_list,
                     default=None, metavar="N1,N2,...",
                     help="concurrency levels for --gateway (default 1,8,32)")
    sub.add_argument("--gateway-requests", type=int, default=150,
                     metavar="N",
                     help="requests per client per level for --gateway")
    sub.add_argument("--gateway-spec", type=_parse_spec, default="hh/P2",
                     help="registry spec served by the embedded --gateway "
                          "load test")
    sub.add_argument("--gateway-url", metavar="URL", default=None,
                     help="drive an already-running gateway at URL instead "
                          "of standing up an embedded one (CI mode)")
    sub.add_argument("--gateway-auth-token", metavar="TOKEN", default=None,
                     help="bearer token for --gateway / --gateway-url")
    sub.add_argument("--query-mix", action="store_true",
                     help="also bench the read hot path: repeated+rotating "
                          "queries at --gateway-clients concurrency levels "
                          "with the answer cache off and on, reporting query "
                          "QPS and p50/p99 (rows land under 'query_mix' in "
                          "--json)")
    sub.add_argument("--query-mix-queries", type=int, default=200,
                     metavar="N",
                     help="queries per client per level for --query-mix")
    sub.add_argument("--query-mix-spec", type=_parse_spec, default="matrix/P2",
                     help="registry spec served by the embedded --query-mix "
                          "cluster (matrix specs rotate covariance/frobenius/"
                          "sketch reads; hh specs rotate thresholds)")
    sub.add_argument("--query-mix-shards", type=int, default=2, metavar="N",
                     help="shard count of the embedded --query-mix cluster")
    sub.add_argument("--query-mix-backend", choices=available_backends(),
                     default="process",
                     help="engine backend of the embedded --query-mix "
                          "cluster")
    sub.add_argument("--seed", type=int, default=2014)

    subparsers.add_parser("protocols", help=_EXPERIMENTS["protocols"])

    sub = subparsers.add_parser("track", help=_EXPERIMENTS["track"])
    sub.add_argument("--protocol", type=_parse_spec, required=True,
                     help="registry spec name, e.g. hh/P3 or matrix/P2 "
                          "(see `repro-experiments protocols`)")
    sub.add_argument("--num-items", type=int, default=50_000,
                     help="stream length (hh domain) / row count (matrix)")
    sub.add_argument("--num-sites", type=int, default=10,
                     help="number of sites m")
    sub.add_argument("--epsilon", type=float, default=0.05,
                     help="approximation parameter")
    sub.add_argument("--phi", type=float, default=0.05,
                     help="heavy hitter threshold (hh domain only)")
    sub.add_argument("--universe-size", type=int, default=10_000)
    sub.add_argument("--beta", type=float, default=1_000.0)
    sub.add_argument("--dataset", choices=["pamap", "msd"], default="pamap",
                     help="dataset surrogate (matrix domain only)")
    sub.add_argument("--seed", type=int, default=2014)
    sub.add_argument("--chunk-size", type=_parse_chunk_size, default=4096)
    sub.add_argument("--shards", type=int, default=1,
                     help="shard the session over this many coordinator "
                          "groups (repro.cluster.ShardedTracker)")
    sub.add_argument("--backend", choices=available_backends(),
                     default="serial",
                     help="engine backend for the sharded session")
    sub.add_argument("--workers", metavar="HOST:PORT,HOST:PORT,...",
                     default=None,
                     help="worker endpoints for --backend socket (started "
                          "with `repro-experiments worker --listen`); shard i "
                          "connects to address i mod len(workers)")
    sub.add_argument("--save", metavar="PATH", default=None,
                     help="write a session checkpoint after the run "
                          "(resume with Tracker.load / ShardedTracker.load)")

    sub = subparsers.add_parser("worker", help=_EXPERIMENTS["worker"])
    sub.add_argument("--listen", metavar="HOST:PORT", required=True,
                     help="endpoint to listen on (port 0 picks an ephemeral "
                          "port, printed on startup)")
    sub.add_argument("--standby", action="store_true",
                     help="note in the startup banner that this worker is a "
                          "standby spare (list it under spare_addresses in "
                          "the parent's backend_options so shards fail over "
                          "to it when their primary worker dies)")
    sub.add_argument("--drain-grace", type=float, default=None,
                     metavar="SECONDS",
                     help="on SIGTERM/Ctrl-C, stop accepting connections but "
                          "give in-flight shard sessions up to SECONDS to "
                          "finish before closing (default: stop immediately)")
    sub.add_argument("--tls-cert", metavar="PEM", default=None,
                     help="serve the shard protocol over TLS with this "
                          "certificate (connecting backends then need "
                          "tls_ca=... in backend_options)")
    sub.add_argument("--tls-key", metavar="PEM", default=None,
                     help="private key for --tls-cert (omit if the cert file "
                          "bundles the key)")
    sub.add_argument("--tls-ca", metavar="PEM", default=None,
                     help="require client certificates signed by this CA "
                          "(mutual TLS)")
    sub.add_argument("--auth-token", metavar="TOKEN", default=None,
                     help="require connecting backends to answer an HMAC "
                          "challenge with this shared token (pass the same "
                          "token as auth_token in backend_options)")
    add_logging_options(sub)

    sub = subparsers.add_parser("serve", help=_EXPERIMENTS["serve"])
    sub.add_argument("--spec", type=_parse_spec, required=True,
                     help="registry spec name to serve, e.g. hh/P2 or "
                          "matrix/P2 (see `repro-experiments protocols`)")
    sub.add_argument("--listen", metavar="HOST:PORT", default="127.0.0.1:8080",
                     help="HTTP endpoint to listen on (port 0 picks an "
                          "ephemeral port, printed on startup)")
    sub.add_argument("--shards", type=int, default=1,
                     help="shard the served session over this many "
                          "coordinator groups")
    sub.add_argument("--backend", choices=available_backends(),
                     default="serial",
                     help="engine backend for the served session")
    sub.add_argument("--workers", metavar="HOST:PORT,HOST:PORT,...",
                     default=None,
                     help="worker endpoints for --backend socket (started "
                          "with `repro-experiments worker --listen`)")
    sub.add_argument("--num-sites", type=int, default=10,
                     help="number of sites m")
    sub.add_argument("--epsilon", type=float, default=0.05,
                     help="approximation parameter")
    sub.add_argument("--dimension", type=int, default=32,
                     help="row dimension (matrix domain only)")
    sub.add_argument("--seed", type=int, default=2014)
    sub.add_argument("--chunk-size", type=_parse_chunk_size, default=4096)
    sub.add_argument("--auth-token", metavar="TOKEN", default=None,
                     help="require `Authorization: Bearer TOKEN` on every "
                          "request except /v1/healthz")
    sub.add_argument("--tls-cert", metavar="PEM", default=None,
                     help="serve HTTPS with this certificate")
    sub.add_argument("--tls-key", metavar="PEM", default=None,
                     help="private key for --tls-cert")
    sub.add_argument("--request-timeout", type=float, default=30.0,
                     metavar="SECONDS",
                     help="per-request deadline (504 when exceeded)")
    sub.add_argument("--max-body-bytes", type=int, default=None,
                     metavar="BYTES",
                     help="reject request bodies larger than this with 413")
    sub.add_argument("--cache-size", type=int, default=None, metavar="N",
                     help="answer-cache LRU capacity of the served session "
                          "(0 disables epoch-guarded caching and ETags; "
                          "default 128)")
    sub.add_argument("--coalesce-max-items", type=int, default=None,
                     metavar="N",
                     help="max items merged into one coalesced push dispatch "
                          "(0 disables write coalescing; default 32768)")
    sub.add_argument("--coalesce-max-bytes", type=int, default=None,
                     metavar="BYTES",
                     help="max request-body bytes merged into one coalesced "
                          "push dispatch (default 8388608)")
    sub.add_argument("--worker-tls-ca", metavar="PEM", default=None,
                     help="CA bundle that signed the --backend socket "
                          "workers' --tls-cert (enables TLS to the workers)")
    sub.add_argument("--worker-tls-cert", metavar="PEM", default=None,
                     help="client certificate presented to --tls-ca workers "
                          "(mutual TLS)")
    sub.add_argument("--worker-tls-key", metavar="PEM", default=None,
                     help="private key for --worker-tls-cert")
    sub.add_argument("--worker-auth-token", metavar="TOKEN", default=None,
                     help="shared token answering the workers' --auth-token "
                          "HMAC challenge")
    sub.add_argument("--open-metrics", action="store_true",
                     help="let GET /v1/metrics join /v1/healthz in the "
                          "auth-exempt set (Prometheus scrapers without the "
                          "bearer token)")
    add_logging_options(sub)

    return parser


def _hh_config(args: argparse.Namespace) -> HeavyHitterConfig:
    return HeavyHitterConfig(
        num_items=args.num_items,
        universe_size=args.universe_size,
        beta=args.beta,
        phi=args.phi,
        num_sites=args.num_sites,
        seed=args.seed,
        epsilon_grid=list(args.epsilons),
        chunk_size=args.chunk_size,
    )


def _matrix_config(args: argparse.Namespace) -> MatrixConfig:
    return MatrixConfig(
        num_rows=args.num_rows,
        num_sites=args.num_sites,
        seed=args.seed,
        epsilon_grid=list(args.epsilons),
        site_grid=list(args.sites),
        chunk_size=args.chunk_size,
    )


def _emit(text: str, out) -> None:
    print(text, file=out)
    print("", file=out)


def _run_figure1(args, out) -> None:
    result = figure1_sweep_epsilon(_hh_config(args))
    for metric, title in (("recall", "Figure 1(a): recall vs epsilon"),
                          ("precision", "Figure 1(b): precision vs epsilon"),
                          ("err", "Figure 1(c): avg error of true HH vs epsilon"),
                          ("msg", "Figure 1(d): messages vs epsilon")):
        _emit(render_figure(result, metric, title), out)


def _run_figure1e(args, out) -> None:
    rows = figure1e_error_vs_messages(_hh_config(args))
    _emit(format_table(rows, title="Figure 1(e): error vs messages"), out)


def _run_figure1f(args, out) -> None:
    result = figure1f_messages_vs_beta(_hh_config(args))
    _emit(render_figure(result, "msg", "Figure 1(f): messages vs beta"), out)


def _run_table1(args, out) -> None:
    rows = table1_rows(_matrix_config(args))
    _emit(format_table(rows, columns=["dataset", "method", "err", "msg",
                                      "sketch_rows", "rank"],
                       title="Table 1"), out)


def _run_figure23(args, out, dataset: str, label: str) -> None:
    config = _matrix_config(args)
    eps = figure_sweep_epsilon(dataset, config)
    sites = figure_sweep_sites(dataset, config)
    _emit(render_figure(eps, "err", f"Figure {label}(a): error vs epsilon"), out)
    _emit(render_figure(eps, "msg", f"Figure {label}(b): messages vs epsilon"), out)
    _emit(render_figure(sites, "msg", f"Figure {label}(c): messages vs sites"), out)
    _emit(render_figure(sites, "err", f"Figure {label}(d): error vs sites"), out)


def _run_figure4(args, out) -> None:
    rows = figure4_tradeoff(args.dataset, _matrix_config(args))
    _emit(format_table(rows, title=f"Figure 4: messages vs error ({args.dataset})"), out)


def _run_bench(args, out) -> None:
    if args.kill_shard_at is not None:
        # The chaos run only means something where the recovery machinery
        # lives: the socket backend's reconnect-and-replay path.
        if not args.shards:
            raise SystemExit(
                "--kill-shard-at injects a mid-stream worker kill into the "
                "scaling curve and needs a --shards list (e.g. --shards 2)"
            )
        if args.backend != "socket":
            raise SystemExit(
                "--kill-shard-at exercises the socket backend's "
                "reconnect-and-replay recovery; use --backend socket"
            )
        if args.kill_shard_at <= 0:
            raise SystemExit("--kill-shard-at must be a positive item count")
    if args.gateway_url is not None and not args.gateway:
        raise SystemExit("--gateway-url requires --gateway")

    def _measure():
        rows = throughput_report_rows(num_items=args.num_items,
                                      num_rows=args.num_rows,
                                      chunk_size=args.chunk_size,
                                      seed=args.seed,
                                      hh_protocols=args.protocols,
                                      matrix_protocols=args.matrix_protocols,
                                      svd_mode=args.svd_mode)
        scaling = None
        if args.shards:
            results = measure_sharded_throughput(
                num_items=args.num_items,
                shard_counts=args.shards,
                backend=args.backend,
                chunk_size=args.chunk_size,
                seed=args.seed,
                kill_shard_at=args.kill_shard_at)
            scaling = sharded_report_rows(results)
        gateway = None
        if args.gateway:
            from .evaluation.gateway_bench import (
                DEFAULT_CLIENT_COUNTS,
                gateway_report_rows,
                measure_gateway_load,
            )

            results = measure_gateway_load(
                spec=args.gateway_spec,
                client_counts=args.gateway_clients or DEFAULT_CLIENT_COUNTS,
                requests_per_client=args.gateway_requests,
                seed=args.seed,
                gateway_url=args.gateway_url,
                auth_token=args.gateway_auth_token)
            gateway = gateway_report_rows(results)
        query_mix = None
        if args.query_mix:
            from .evaluation.gateway_bench import (
                DEFAULT_CLIENT_COUNTS,
                measure_query_mix,
                query_mix_report_rows,
            )

            results = measure_query_mix(
                spec=args.query_mix_spec,
                shards=args.query_mix_shards,
                backend=args.query_mix_backend,
                client_counts=args.gateway_clients or DEFAULT_CLIENT_COUNTS,
                queries_per_client=args.query_mix_queries,
                seed=args.seed)
            query_mix = query_mix_report_rows(results)
        return rows, scaling, gateway, query_mix

    from time import perf_counter

    bench_started = perf_counter()
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        rows, scaling, gateway, query_mix = profiler.runcall(_measure)
    else:
        rows, scaling, gateway, query_mix = _measure()
    bench_duration = perf_counter() - bench_started

    _emit(format_table(rows, title="Ingestion throughput (per-item vs batched)"),
          out)
    for row in rows:
        _emit(f"{row['workload']} [{row['protocol']}]: "
              f"{row['batched_items_per_sec']:,} items/sec batched vs "
              f"{row['per_item_items_per_sec']:,} items/sec per-item "
              f"({row['speedup']}x)", out)
    if scaling is not None:
        _emit(format_table(scaling,
                           title=f"Sharded scaling ({args.backend} backend)"),
              out)
        for row in scaling:
            speedup = row.get("speedup_vs_1_shard")
            suffix = f" ({speedup}x vs 1 shard)" if speedup else ""
            _emit(f"{row['shards']} shard(s) [{row['backend']}]: "
                  f"{row['items_per_sec']:,} items/sec{suffix}", out)
    if gateway is not None:
        _emit(format_table(gateway,
                           columns=["clients", "requests", "queries",
                                    "pushes", "requests_per_second",
                                    "queries_per_second", "p50_latency_ms",
                                    "p99_latency_ms"],
                           title="Gateway load (mixed push+query over HTTP)"),
              out)
        for row in gateway:
            _emit(f"{row['clients']} client(s) [{row['spec']}, "
                  f"{row['backend']} backend]: "
                  f"{row['requests_per_second']:,.0f} req/sec "
                  f"({row['queries_per_second']:,.0f} queries/sec), "
                  f"p50 {row['p50_latency_ms']:.2f} ms, "
                  f"p99 {row['p99_latency_ms']:.2f} ms", out)
    if query_mix is not None:
        _emit(format_table(query_mix,
                           columns=["clients", "cache", "queries",
                                    "not_modified", "queries_per_second",
                                    "p50_latency_ms", "p99_latency_ms"],
                           title="Query mix (repeated+rotating reads, cache "
                                 "off vs on)"),
              out)
        off_p50 = {row["clients"]: row["p50_latency_ms"]
                   for row in query_mix if row["cache"] == "off"}
        for row in query_mix:
            if row["cache"] != "on":
                continue
            baseline = off_p50.get(row["clients"])
            speedup = (f", {baseline / row['p50_latency_ms']:.1f}x faster "
                       "p50 than uncached"
                       if baseline and row["p50_latency_ms"] > 0 else "")
            _emit(f"{row['clients']} client(s) [{row['spec']}, cache on]: "
                  f"{row['queries_per_second']:,.0f} queries/sec, "
                  f"p50 {row['p50_latency_ms']:.2f} ms "
                  f"({row['not_modified']} served 304){speedup}", out)

    if args.profile:
        import io as _io

        buffer = _io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.strip_dirs().sort_stats("cumulative").print_stats(20)
        _emit("", out)
        _emit("cProfile top 20 by cumulative time:", out)
        _emit(buffer.getvalue().rstrip(), out)

    if args.json_path:
        import json

        from .evaluation.meta import bench_meta

        payload = {
            "meta": {
                **bench_meta(bench_duration),
                "num_items": args.num_items,
                "num_rows": args.num_rows,
                "chunk_size": args.chunk_size,
                "seed": args.seed,
                "hh_protocols": args.protocols,
                "matrix_protocols": args.matrix_protocols,
                "svd_mode": args.svd_mode,
                "shards": args.shards,
                "backend": args.backend if args.shards else None,
                "kill_shard_at": args.kill_shard_at,
                "gateway_spec": args.gateway_spec if args.gateway else None,
                "gateway_requests_per_client":
                    args.gateway_requests if args.gateway else None,
                "query_mix_spec":
                    args.query_mix_spec if args.query_mix else None,
                "query_mix_queries_per_client":
                    args.query_mix_queries if args.query_mix else None,
                "query_mix_shards":
                    args.query_mix_shards if args.query_mix else None,
                "query_mix_backend":
                    args.query_mix_backend if args.query_mix else None,
            },
            "throughput": rows,
            "scaling": scaling,
            "gateway": gateway,
            "query_mix": query_mix,
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        _emit(f"wrote JSON report to {args.json_path}", out)


def _run_protocols(args, out) -> None:
    _emit(format_table(registry_rows(),
                       columns=["spec", "class", "required", "optional",
                                "summary"],
                       title="Protocol registry"), out)
    _emit(f"{len(available_specs())} specs; build with "
          "repro.create(spec, ...) or repro.Tracker.create(spec, ...)", out)
    _emit(format_table(backend_registry_rows(),
                       columns=["backend", "class", "summary"],
                       title="Engine backend registry (repro.cluster)"), out)
    _emit("shard a session over any backend with "
          "repro.ShardedTracker.create(spec, shards=N, backend=...) or "
          "`track --shards N --backend process`", out)


def _spec_kwargs(spec, base: dict) -> dict:
    """Keep only the parameters the spec accepts; fill computed defaults."""
    import math

    accepted = {param.name for param in spec.params}
    kwargs = {name: value for name, value in base.items() if name in accepted}
    if spec.name == "matrix/FD" and "sketch_size" not in kwargs:
        kwargs["sketch_size"] = max(1, math.ceil(2.0 / base["epsilon"]))
    return kwargs


def _make_session(spec, args, build_kwargs: dict):
    """Build a plain or sharded tracking session from the track options."""
    backend_options = None
    if getattr(args, "workers", None):
        if args.backend != "socket":
            raise SystemExit("--workers requires --backend socket")
        backend_options = {"addresses": args.workers}
        for option in ("tls_ca", "tls_cert", "tls_key", "auth_token"):
            value = getattr(args, f"worker_{option}", None)
            if value is not None:
                backend_options[option] = value
    elif args.backend == "socket":
        raise SystemExit(
            "--backend socket needs --workers HOST:PORT[,HOST:PORT...] "
            "(start workers with `repro-experiments worker --listen`)"
        )
    cache_kwargs = {}
    if getattr(args, "cache_size", None) is not None:
        cache_kwargs["cache_size"] = args.cache_size
    if args.shards > 1 or args.backend != "serial":
        return ShardedTracker.create(spec.name, shards=args.shards,
                                     backend=args.backend,
                                     backend_options=backend_options,
                                     chunk_size=args.chunk_size,
                                     **cache_kwargs, **build_kwargs)
    return Tracker.create(spec.name, chunk_size=args.chunk_size,
                          **cache_kwargs, **build_kwargs)


def _run_track(args, out) -> None:
    """Run one ad-hoc (optionally sharded) session through the facades."""
    spec = get_spec(args.protocol)
    if spec.domain == "hh":
        from .data.zipfian import ZipfianStreamGenerator
        from .streaming.items import WeightedItemBatch

        generator = ZipfianStreamGenerator(universe_size=args.universe_size,
                                           skew=2.0, beta=args.beta,
                                           seed=args.seed)
        sample = generator.generate(args.num_items)
        tracker = _make_session(
            spec, args, _spec_kwargs(spec, {"num_sites": args.num_sites,
                                            "epsilon": args.epsilon,
                                            "seed": args.seed}))
        tracker.run(WeightedItemBatch.from_pairs(sample.items))
        answer = tracker.query(HeavyHitters(phi=args.phi))
        _emit(repr(tracker), out)
        _emit(f"heavy hitters (phi={args.phi:g}, additive bound "
              f"{answer.error_bound:.4g}):", out)
        for hitter in answer.hitters[:10]:
            _emit(f"  {hitter.element!r}: share {hitter.relative_weight:.4f} "
                  f"(estimated weight {hitter.estimated_weight:.4g})", out)
        _emit(f"answer JSON: {answer.to_json()}", out)
    else:
        from .data.datasets import load_dataset

        dataset = load_dataset(args.dataset, num_rows=args.num_items,
                               seed=args.seed)
        tracker = _make_session(
            spec, args, _spec_kwargs(spec, {"num_sites": args.num_sites,
                                            "dimension": dataset.dimension,
                                            "epsilon": args.epsilon,
                                            "seed": args.seed}))
        tracker.run(dataset.rows)
        covariance = tracker.query(Covariance())
        frobenius = tracker.query(FrobeniusSquared())
        _emit(repr(tracker), out)
        bound = ("none (Appendix C)" if covariance.error_bound is None
                 else f"{covariance.error_bound:.4g}")
        _emit(f"covariance spectral-error bound: {bound}", out)
        _emit(f"estimated ||A||_F^2: {frobenius.estimate:.6g}", out)
        _emit(f"answer JSON: {frobenius.to_json()}", out)
    stats = tracker.stats()
    _emit(f"items={stats.items_processed}  messages={stats.total_messages}  "
          f"({stats.items_processed / max(1, stats.total_messages):.1f}x "
          "less than forwarding everything)", out)
    if args.save:
        tracker.save(args.save)
        loader = ("repro.ShardedTracker.load"
                  if isinstance(tracker, ShardedTracker)
                  else "repro.Tracker.load")
        _emit(f"checkpoint written to {args.save} (resume with {loader})", out)
    if isinstance(tracker, ShardedTracker):
        tracker.close()


def _run_worker(args, out) -> None:
    """Serve shard sessions for socket-backend parents until interrupted."""
    import signal

    from .cluster.socket_backend import (
        WorkerServer,
        parse_address,
        server_ssl_context,
    )

    if args.log_json:
        from .obs.logging import configure_json_logging

        configure_json_logging(args.log_level)
    if args.tls_key and not args.tls_cert:
        raise SystemExit("--tls-key requires --tls-cert")
    if args.tls_ca and not args.tls_cert:
        raise SystemExit("--tls-ca requires --tls-cert (the worker must "
                         "present its own certificate to verify clients)")
    ssl_context = None
    if args.tls_cert:
        ssl_context = server_ssl_context(args.tls_cert, keyfile=args.tls_key,
                                         cafile=args.tls_ca)
    host, port = parse_address(args.listen)
    server = WorkerServer(host, port, ssl_context=ssl_context,
                          auth_token=args.auth_token)

    def _terminate(signum, frame):  # pragma: no cover - signal delivery
        raise KeyboardInterrupt

    # Install the handler before announcing readiness: the banner tells
    # orchestration scripts they may now manage (and terminate) us.
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        bound_host, bound_port = server.address
        role = "standby worker" if args.standby else "worker"
        tls_status = ("mutual-tls" if args.tls_ca else "on") if ssl_context \
            else "off"
        auth_status = "hmac-token" if args.auth_token else "off"
        # Readiness line on stderr so orchestration scripts (and the CI
        # gateway job) can wait on the bind without parsing stdout.
        print(f"repro-worker ready host={bound_host} port={bound_port} "
              f"tls={tls_status} auth={auth_status}",
              file=sys.stderr, flush=True)
        _emit(f"repro {role} listening on {bound_host}:{bound_port} "
              f"(wire-frame shard protocol; tls={tls_status} "
              f"auth={auth_status}; one session per connection; "
              "stop with Ctrl-C or SIGTERM)", out)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        if args.drain_grace and server.active_sessions:
            _emit(f"draining {server.active_sessions} live session(s) "
                  f"for up to {args.drain_grace:g}s before shutdown", out)
            if not server.drain(args.drain_grace):
                _emit(f"drain grace expired with {server.active_sessions} "
                      "session(s) still attached; closing them", out)
        server.stop()


def _run_serve(args, out) -> None:
    """Serve one tracking session over the HTTP/JSON gateway."""
    import signal

    from .cluster.socket_backend import parse_address, server_ssl_context
    from .gateway import Gateway

    if args.log_json:
        from .obs.logging import configure_json_logging

        configure_json_logging(args.log_level)
    if args.tls_key and not args.tls_cert:
        raise SystemExit("--tls-key requires --tls-cert")
    ssl_context = None
    if args.tls_cert:
        ssl_context = server_ssl_context(args.tls_cert, keyfile=args.tls_key)
    spec = get_spec(args.spec)
    tracker = _make_session(
        spec, args, _spec_kwargs(spec, {"num_sites": args.num_sites,
                                        "epsilon": args.epsilon,
                                        "dimension": args.dimension,
                                        "seed": args.seed}))
    host, port = parse_address(args.listen)
    gateway_kwargs = {}
    if args.max_body_bytes is not None:
        gateway_kwargs["max_body_bytes"] = args.max_body_bytes
    if args.coalesce_max_items is not None:
        gateway_kwargs["coalesce_max_items"] = args.coalesce_max_items
    if args.coalesce_max_bytes is not None:
        gateway_kwargs["coalesce_max_bytes"] = args.coalesce_max_bytes
    gateway = Gateway(tracker, host=host, port=port,
                      auth_token=args.auth_token,
                      request_timeout=args.request_timeout,
                      open_metrics=args.open_metrics,
                      ssl_context=ssl_context, **gateway_kwargs)

    def _terminate(signum, frame):  # pragma: no cover - signal delivery
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        gateway.start()
        tls_status = "on" if ssl_context else "off"
        auth_status = "bearer-token" if args.auth_token else "off"
        shards = getattr(tracker, "num_shards", 1)
        backend = getattr(tracker, "backend_name", "in-process")
        # Readiness on stderr, mirroring the worker banner, so scripts can
        # block on the bind.
        print(f"repro-gateway ready url={gateway.url} spec={spec.name} "
              f"shards={shards} tls={tls_status} auth={auth_status}",
              file=sys.stderr, flush=True)
        _emit(f"serving {spec.name} ({shards} shard(s), {backend} backend) "
              f"at {gateway.url} — routes: POST /v1/push, "
              "GET /v1/query/<kind>, GET /v1/stats, GET /v1/healthz, "
              "GET /v1/metrics, POST /v1/checkpoint; "
              "stop with Ctrl-C or SIGTERM", out)
        while not gateway.join(timeout=1.0):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        gateway.stop()
        if isinstance(tracker, ShardedTracker):
            tracker.close()


def _run_figure67(args, out) -> None:
    results = figure67_p4_comparison(args.dataset, _matrix_config(args))
    _emit(render_figure(results["err_vs_epsilon"], "err",
                        f"Figures 6/7(a): error vs epsilon with P4 ({args.dataset})"), out)
    _emit(render_figure(results["err_vs_sites"], "err",
                        f"Figures 6/7(b): error vs sites with P4 ({args.dataset})"), out)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        rows = [{"experiment": name, "description": description}
                for name, description in _EXPERIMENTS.items()]
        _emit(format_table(rows, title="Available experiments"), out)
        return 0
    if args.command == "figure1":
        _run_figure1(args, out)
    elif args.command == "figure1e":
        _run_figure1e(args, out)
    elif args.command == "figure1f":
        _run_figure1f(args, out)
    elif args.command == "table1":
        _run_table1(args, out)
    elif args.command == "figure2":
        _run_figure23(args, out, "pamap", "2")
    elif args.command == "figure3":
        _run_figure23(args, out, "msd", "3")
    elif args.command == "figure4":
        _run_figure4(args, out)
    elif args.command == "figure67":
        _run_figure67(args, out)
    elif args.command == "bench":
        _run_bench(args, out)
    elif args.command == "protocols":
        _run_protocols(args, out)
    elif args.command == "track":
        _run_track(args, out)
    elif args.command == "worker":
        _run_worker(args, out)
    elif args.command == "serve":
        _run_serve(args, out)
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
