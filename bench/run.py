"""Run the benchmark: ``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``.

One workload per invocation prints every metric by name with its unit
(median, the highest percentile that still has >= 10 samples beyond it, and
the sample count), the operations attempted and failed, and - as the last
line of standard output - one JSON object ``{correct, attempted, failed,
metrics}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
repeats the workload with spans recorded around every layer call and
reports the per-layer metrics instead (end-to-end numbers never come from a
traced run).  Without ``--workload`` every workload runs in its own process
and the runs are collected into ``<out>/results.json`` for ``compare.py``.
Exit status is non-zero when any check or operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# The script's own directory gives way to the checkout (for ``bench``) and its sources.
sys.path[0:1] = [ROOT, SRC]

from bench import BLAS_VARIABLES, declared  # noqa: E402

DEFAULT_OUT = os.path.join(ROOT, "bench", "out")
DEFAULT_SEED = 2014
#: Set-up is repeated and its median reported, so one slow fork does not decide it.
SETUP_REPEATS = 5


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="the only input to workload generation")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the time-boxed phases (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: follow every run with a traced one")
    parser.add_argument("--repeats", type=int, default=1,
                        help="all-workloads mode: runs per workload, seeds S, S+1, ...")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for traces, result files and temporary checkpoints")
    parser.add_argument("--quick", action="store_true",
                        help="~50x smaller sizes for the self-test; results are stamped "
                             "comparable=false")
    return parser.parse_args(argv)


def prepare_process() -> Dict[str, str]:
    """Pin BLAS, check that the program imported is this checkout's; the child environment."""
    for name in BLAS_VARIABLES:
        os.environ[name] = "1"
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pins were set")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"bench: no program to measure: {SRC}/repro is missing")
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not from {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ------------------------------------------------------------------ one run
def run_one(args: argparse.Namespace) -> int:
    child_env = prepare_process()
    from bench import workloads  # NumPy comes in here, after the pins
    from bench.calibrate import HostSpeed
    from bench.procs import end_all_children
    from bench.trace import Tracer

    # Told to stop, leave through the ``finally`` below like any other failure.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of "
                         f"{', '.join(workloads.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else float(declared()["run_seconds"])
    tracer = Tracer() if args.trace else None
    if args.quick or tracer:
        # The minimum number of rounds: a traced run spends its time on stage
        # replays instead, and no end-to-end number comes from it.
        seconds = 0.0
    ctx = workloads.Context(seed=args.seed, quick=args.quick, out_dir=args.out,
                            child_env=child_env, seconds=seconds, tracer=tracer,
                            host=HostSpeed(runs=2 if args.quick else 5))
    workload = workloads.WORKLOADS[args.workload](ctx)
    os.makedirs(args.out, exist_ok=True)
    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        if tracer is None:
            metrics = _untraced(workload)
        else:
            metrics = _traced(workload, tracer,
                              os.path.join(args.out, f"trace-{args.workload}.json"))
    except Exception:  # noqa: BLE001 - any failure is a failed run, reported below
        traceback.print_exc()
        ctx.ops.fail("the run raised; see the traceback on stderr")
    finally:
        # No process may outlive the run, whichever way it ends.
        try:
            workload.teardown()
        finally:
            end_all_children()
        if tracer is not None:
            tracer.restore()
    return _report(args, ctx, metrics, seconds)


def _untraced(workload: Any) -> Dict[str, Dict[str, Any]]:
    """Set up ``SETUP_REPEATS`` times (the last set-up is the one measured on), then measure."""
    from bench import workloads

    host = workload.ctx.host
    setup_seconds = []
    for repeat in range(2 if workload.ctx.quick else SETUP_REPEATS):
        if repeat:
            workload.teardown()
        before = host.read()
        begin = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - begin
        setup_seconds.append(seconds / ((before + host.read()) / 2.0))
    return workloads.end_to_end_metrics(workload.measure(), setup_seconds)


def _traced(workload: Any, tracer: Any, trace_path: str) -> Dict[str, Dict[str, Any]]:
    from bench import layers, workloads

    ctx = workload.ctx
    layers.instrument_data(tracer)
    workload.setup()
    data_rates = layers.data_rates(tracer, workload)
    # An untraced bulk pass on the same set-up: what the traced passes are
    # compared with for bench.trace_overhead_share.
    ctx.tracer = None
    try:
        reference = workloads.PhaseResult()
        workloads.bulk_pass(ctx, workload.front, workload.domain, workload.log, reference)
    finally:
        ctx.tracer = tracer
    layers.instrument_layers(tracer)
    result = workload.measure()
    metrics = layers.per_layer_metrics(workload, result, tracer,
                                       reference.pass_walls[0], data_rates)
    tracer.write(trace_path)
    return metrics


def _report(args: argparse.Namespace, ctx: Any, metrics: Dict[str, Dict[str, Any]],
            seconds: float) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    expected = [entry["name"] for entry in declared()[kind]]
    complete = sorted(metrics) == sorted(expected)
    if metrics and not complete:
        ctx.ops.fail(f"emitted metrics differ from BENCHMARK.json {kind}: "
                     f"{sorted(set(metrics) ^ set(expected))}")
    ops = ctx.ops
    print(f"# {args.workload}  seed={args.seed}  seconds={seconds:g}  trace={args.trace}"
          f"{'  quick (not comparable)' if args.quick else ''}")
    for name in expected:
        if name in metrics:
            print(_metric_line(name, metrics[name]))
    print(f"# operations attempted={ops.attempted} failed={ops.failed} "
          f"failed_share={ops.failed / max(1, ops.attempted):.6f}")
    slow = ctx.host.readings or [1.0]
    host = {"median": statistics.median(slow), "min": min(slow), "max": max(slow),
            "n": len(slow)}
    print("# host slowdown (every time above is divided by the reading around it): "
          + " ".join(f"{key}={value:.3g}" for key, value in host.items()))
    for failure in ops.failures:
        print(f"# FAILED: {failure}")
    correct = ops.failed == 0 and complete
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "comparable": not args.quick,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "host_slowdown": host,
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "failures": ops.failures, "metrics": metrics,
    }
    detail_path = os.path.join(
        args.out, f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(detail_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    if not complete:
        return 1  # nothing trustworthy to print as a result line
    print(json.dumps({
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in expected},
    }))
    return 0 if correct else 1


def _metric_line(name: str, metric: Dict[str, Any]) -> str:
    text = f"{name:<36} {metric['value']:>16.6g} {metric['unit']:<10}"
    if "n" in metric:
        text += f" median={metric['median']:.6g}"
        if metric["tail"] is not None:
            text += f" p{metric['tail_pct']:g}={metric['tail']:.6g}"
        text += f" n={metric['n']}"
    return text


# ------------------------------------------------------------- all workloads
def run_all(args: argparse.Namespace) -> int:
    names = [entry["name"] for entry in declared()["workloads"]]
    runs: List[Dict[str, Any]] = []
    status = 0
    for repeat in range(args.repeats):
        seed = args.seed + repeat
        for name in names:
            for trace in ((0, 1) if args.traced else (args.trace,)):
                command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                           "--seed", str(seed), "--trace", str(trace), "--out", args.out]
                if args.seconds is not None:
                    command += ["--seconds", repr(args.seconds)]
                if args.quick:
                    command.append("--quick")
                completed = subprocess.run(command, stdin=subprocess.DEVNULL)
                status = status or completed.returncode
                detail = os.path.join(args.out,
                                      f"result-{name}-trace{trace}-seed{seed}.json")
                if os.path.exists(detail):
                    with open(detail, "r", encoding="utf-8") as handle:
                        runs.append(json.load(handle))
    results = {"meta": _meta(args), "runs": runs}
    path = os.path.join(args.out, "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"# {len(runs)} runs, operations attempted={attempted} failed={failed}; "
          f"summary written to {path}")
    return status


def _meta(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, stdin=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {"git_sha": sha, "nproc": os.cpu_count(), "seed": args.seed,
            "repeats": args.repeats, "quick": args.quick, "comparable": not args.quick,
            "blas_threads": {name: "1" for name in BLAS_VARIABLES}}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
