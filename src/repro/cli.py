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
    repro-experiments list
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
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
from .evaluation.figures import (
    CHOOSE_DATASET,
    DATASETS,
    FAMILIES,
    FIGURES,
    render,
)
from .evaluation.tables import format_table

__all__ = ["main", "build_parser"]

# The figure/table commands are the rows of ``FIGURES``; these are the rest.
_COMMANDS = {
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
    values = _parse_float_list(text)
    for value in values:
        if not value.is_integer():
            raise argparse.ArgumentTypeError(f"not an integer: {value:g}")
    return [int(value) for value in values]


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
            sub.add_argument("--dataset", choices=list(DATASETS), default="pamap",
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

    for figure in FIGURES.values():
        sub = subparsers.add_parser(figure.name, help=figure.help)
        if figure.family == "hh":
            add_hh_options(sub)
        else:
            add_matrix_options(sub, with_dataset=figure.dataset == CHOOSE_DATASET)

    subparsers.add_parser("protocols", help=_COMMANDS["protocols"])

    sub = subparsers.add_parser("track", help=_COMMANDS["track"])
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
    sub.add_argument("--dataset", choices=list(DATASETS), default="pamap",
                     help="dataset surrogate (matrix domain only)")
    sub.add_argument("--seed", type=int, default=2014)
    sub.add_argument("--chunk-size", type=_parse_chunk_size, default=4096)
    sub.add_argument("--shards", type=int, default=1,
                     help="shard the session's sites over this many "
                          "coordinator groups (repro.cluster.ShardedTracker; "
                          "at most --num-sites)")
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

    sub = subparsers.add_parser("worker", help=_COMMANDS["worker"])
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

    sub = subparsers.add_parser("serve", help=_COMMANDS["serve"])
    sub.add_argument("--spec", type=_parse_spec, required=True,
                     help="registry spec name to serve, e.g. hh/P2 or "
                          "matrix/P2 (see `repro-experiments protocols`)")
    sub.add_argument("--listen", metavar="HOST:PORT", default="127.0.0.1:8080",
                     help="HTTP endpoint to listen on (port 0 picks an "
                          "ephemeral port, printed on startup)")
    sub.add_argument("--shards", type=int, default=1,
                     help="shard the served session's sites over this many "
                          "coordinator groups (at most --num-sites)")
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
                          "(0 disables answer caching, not ETags; "
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


def _emit(text: str, out) -> None:
    print(text, file=out)
    print("", file=out)


def _run_figure(args, out) -> None:
    """Run the ``FIGURES`` row the command names and print its panels."""
    config_type = FAMILIES[FIGURES[args.command].family].config
    # Flags are named after the config fields they set, bar the two grids.
    given = {**vars(args), "epsilon_grid": args.epsilons,
             "site_grid": getattr(args, "sites", None)}
    config = config_type(**{spec.name: given[spec.name]
                            for spec in fields(config_type)
                            if spec.name in given})
    for block in render(args.command, config):
        _emit(block, out)


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
        try:
            return ShardedTracker.create(spec.name, shards=args.shards,
                                         backend=args.backend,
                                         backend_options=backend_options,
                                         chunk_size=args.chunk_size,
                                         **cache_kwargs, **build_kwargs)
        except ValueError as exc:  # e.g. --shards 4 --num-sites 2
            raise SystemExit(str(exc)) from None
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


def _run_list(args, out) -> None:
    commands = {**{figure.name: figure.help for figure in FIGURES.values()},
                **_COMMANDS}
    rows = [{"experiment": name, "description": description}
            for name, description in commands.items()]
    _emit(format_table(rows, title="Available experiments"), out)


_HANDLERS = {"list": _run_list, "protocols": _run_protocols,
             "track": _run_track, "worker": _run_worker, "serve": _run_serve}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    # Every command that is not listed here is a row of ``FIGURES``.
    _HANDLERS.get(args.command, _run_figure)(args, out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
