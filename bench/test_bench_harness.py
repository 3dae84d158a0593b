"""Self-test of the benchmark harness: its arithmetic, and that it emits what it declares."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import bench
from bench import compare
from bench.loadgen import Ops, open_loop_due_times, run_open_loop, timed_loop
from bench.stats import (
    percentile,
    quartile_spread,
    quiet_median,
    summarize,
    tail_percentile,
    window_medians,
)
from bench.trace import Span, Tracer, covered_length, layer_self_seconds, read_trace, self_times

ROOT = bench.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def declared():
    return bench.declared()


# ------------------------------------------------------------------- statistics
@pytest.mark.parametrize("count, expected", [
    (9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_summarize_reports_median_tail_and_count():
    summary = summarize(list(range(1, 101)))
    assert summary == {"median": 50.5, "tail_pct": 90.0, "tail": 90, "n": 100}
    assert summarize([3.0, 1.0, 2.0])["tail"] is None
    assert percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        summarize([])


def test_quiet_median_is_the_lowest_window_median():
    # Windows close once they hold 1.0 of work: [.5 .5] [.25 .25 .25 .25] [.9 .9] and a rest.
    durations = [0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 0.9, 0.9, 0.125]
    assert window_medians(durations, window_s=1.0) == [0.5, 0.25, 0.9]
    assert quiet_median(durations, window_s=1.0) == 0.25
    assert window_medians([0.1, 0.3], window_s=1.0) == [0.2]  # a lone unfilled window counts
    assert quiet_median([7.0, 5.0, 6.0], window_s=1.0) == 5.0  # long operations: the fastest


def test_quartile_spread_matches_the_contract_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


# ------------------------------------------------------------------------ spans
def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_span_self_time_is_duration_minus_child_coverage():
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 2.0, 6.0, 10.0]))
    with tracer.span("outer", "api"):
        with tracer.span("first", "streaming"):
            pass
        with tracer.span("second", "streaming"):  # overlaps the first on [2, 3]
            pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["first"].parent == by_name["outer"].id
    assert {span.request for span in tracer.spans} == {by_name["outer"].id}
    own = self_times(tracer.spans)
    assert own[by_name["outer"].id] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert own[by_name["first"].id] == pytest.approx(2.0)
    assert layer_self_seconds(tracer.spans) == pytest.approx({"api": 5.0, "streaming": 6.0})
    assert covered_length([(0, 2), (1, 3), (5, 9)], 0, 6) == pytest.approx(4.0)


def test_instrument_wraps_and_restores_a_method(tmp_path):
    class Layer:
        def work(self, value):
            return value + 1

    tracer = Tracer()
    original = Layer.__dict__["work"]
    tracer.instrument(Layer, "work", "demo")
    assert Layer().work(1) == 2
    tracer.restore()
    assert Layer.__dict__["work"] is original
    assert [(span.name, span.layer) for span in tracer.spans] == [("Layer.work", "demo")]
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    assert read_trace(str(path)) == tracer.spans
    assert isinstance(read_trace(str(path))[0], Span)


# -------------------------------------------------------------------- open loop
def test_open_loop_keeps_its_schedule_and_accounts_lateness():
    now = [0.0]
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        now[0] += seconds

    def send(index):
        now[0] += 0.25 if index == 1 else 0.01  # the second request stalls
        return index

    due = open_loop_due_times(start=1.0, rate=10.0, count=4)
    assert due == pytest.approx([1.0, 1.1, 1.2, 1.3])
    samples = run_open_loop(due, send, clock=lambda: now[0], sleep=sleep)
    assert [sample.tag for sample in samples] == [0, 1, 2, 3]
    # Requests 0 and 1 go out on time; 2 was due while 1 stalled and goes out late,
    # and its wait counts as latency because latency runs from the due time.
    assert [sample.lateness for sample in samples] == pytest.approx([0.0, 0.0, 0.15, 0.06])
    assert samples[2].latency == pytest.approx(0.15 + 0.01)
    assert samples[1].latency == pytest.approx(0.25)
    assert slept == pytest.approx([1.0, 0.09])  # never sleeps once behind schedule


def test_open_loop_stops_when_told_and_timed_loop_honours_its_bounds():
    assert run_open_loop([0.0, 0.0], lambda index: index, keep_going=lambda: False) == []
    now = [0.0]

    def body(_):
        now[0] += 1.0

    assert len(timed_loop(2.5, body, clock=lambda: now[0])) == 3
    assert len(timed_loop(0.0, body, min_count=4, clock=lambda: now[0])) == 4
    assert len(timed_loop(100.0, body, max_count=2, clock=lambda: now[0])) == 2


def test_ops_counts_failed_checks_against_attempts():
    ops = Ops()
    ops.ok(3)
    assert ops.check(True, "fine") and not ops.check(False, "broken")
    assert (ops.attempted, ops.failed, ops.failures) == (5, 1, ["broken"])


# ---------------------------------------------------------------------- compare
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.2 for x in steady], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "lower", 0.1)[0] == "improved"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "higher", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [x * 1.05 for x in steady], "lower", 0.1)[0] == "unchanged"
    noisy = [100.0, 140.0, 80.0, 120.0, 60.0]
    assert compare.verdict(noisy, steady, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [10.0, 11.0, 12.0], "lower", 0.1)[0] == "improved"
    assert compare.verdict(noisy, [1000.0, 1100.0], "lower", 0.1)[0] == "regressed"


def test_compare_counts_regressions_and_failed_operations(declared):
    workload = declared["workloads"][0]["name"]
    metric = declared["end_to_end"][0]

    def run(value, failed=0):
        return {"workload": workload, "trace": 0, "attempted": 10, "failed": failed,
                "metrics": {metric["name"]: {"value": value, "unit": metric["unit"]}}}

    worse = 2.0 if metric["better"] == "lower" else 0.5
    lines, regressions = compare.compare([run(1.0)] * 3, [run(worse)] * 3, declared)
    assert regressions == 1 and any("regressed" in line for line in lines)
    _, regressions = compare.compare([run(1.0)] * 3, [run(1.0, failed=1)] * 3, declared)
    assert regressions == 1
    _, regressions = compare.compare([run(1.0)] * 3, [run(1.0)] * 3, declared)
    assert regressions == 0


# ------------------------------------------------------------ the declared file
def test_benchmark_json_meets_the_contract(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["bench"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in declared["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in declared["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in declared["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    setup = [entry for entry in declared["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"] for entry in declared["end_to_end"])
    runs = 4 + 22 * len(declared["workloads"])
    assert runs * (declared["run_seconds"] + 12) <= 3420  # 12 s: set-ups, start, checks


def test_declared_metrics_match_the_code(declared):
    source = os.path.join(ROOT, "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    from bench import layers, workloads

    assert [entry["name"] for entry in declared["workloads"]] == list(workloads.WORKLOADS)
    for entry in declared["workloads"]:
        assert workloads.WORKLOADS[entry["name"]].why == entry["why"]
    assert {entry["name"]: (entry["unit"], entry["better"])
            for entry in declared["per_layer"]} == layers.PER_LAYER


# ------------------------------------------------------- no process left behind
_LEAKY_RUN = """
import os, subprocess, sys
from multiprocessing import resource_tracker
from bench.procs import descendants, end_all_children

resource_tracker.ensure_running()  # what the shm backend's segments bring with them
subprocess.Popen(["sh", "-c", "sleep 60 & sleep 60"])  # a child with a child of its own
assert len(descendants(os.getpid())) >= 3, descendants(os.getpid())
end_all_children()
sys.exit(len(descendants(os.getpid())))
"""


def test_a_run_ends_every_process_below_it_before_it_exits():
    """The resource tracker outlived its run by milliseconds, and the driver saw it."""
    completed = subprocess.run([sys.executable, "-c", _LEAKY_RUN], cwd=ROOT,
                               stdin=subprocess.DEVNULL, capture_output=True, text=True,
                               timeout=60)
    assert completed.returncode == 0, completed.stderr


# ------------------------------------------------------------- the quick run
def _carrying(mark):
    """Command lines of the live processes whose environment holds ``mark``."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if mark.encode() not in handle.read().split(b"\0"):
                    continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                found.append(handle.read().replace(b"\0", b" ").decode())
        except OSError:
            continue  # ended while we were looking, or not ours to read
    return found


def _quick_run(workload, trace, out):
    """The finished run, with the processes it left behind as ``.survivors``."""
    mark = f"BENCH_TEST_RUN={workload}-{trace}-{os.getpid()}"
    # Output goes to files: a pipe would be held open by whatever the run left
    # behind, and reading it to the end would wait for the evidence to go away.
    paths = [os.path.join(str(out), f"{stream}-{workload}-{trace}.txt")
             for stream in ("stdout", "stderr")]
    with open(paths[0], "w") as stdout, open(paths[1], "w") as stderr:
        completed = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
             "--quick", "--seed", "7", "--trace", str(trace), "--out", str(out)],
            cwd=ROOT, env=dict(os.environ, **dict([mark.split("=")])),
            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, timeout=600)
    completed.survivors = _carrying(mark)  # looked for at once: nothing may outlive the run
    with open(paths[0]) as stdout, open(paths[1]) as stderr:
        completed.stdout, completed.stderr = stdout.read(), stderr.read()
    return completed


def test_quick_runs_emit_exactly_the_declared_names(declared, tmp_path):
    """Every workload, untraced and traced, at self-test size: names match both ways."""
    combos = [(entry["name"], trace) for entry in declared["workloads"] for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:  # two cores; timings are not looked at
        done = list(pool.map(lambda combo: _quick_run(*combo, tmp_path), combos))
    expected = {0: [entry["name"] for entry in declared["end_to_end"]],
                1: [entry["name"] for entry in declared["per_layer"]]}
    units = {entry["name"]: entry["unit"]
             for entry in declared["end_to_end"] + declared["per_layer"]}
    for (workload, trace), completed in zip(combos, done):
        context = f"{workload} trace={trace}\n{completed.stdout[-3000:]}{completed.stderr[-3000:]}"
        assert completed.returncode == 0, context
        assert completed.survivors == [], context
        last = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}, context
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == expected[trace], context
        for name, metric in last["metrics"].items():
            assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
        if trace == 0:
            assert all(metric["value"] > 0 for metric in last["metrics"].values()), context
        with open(tmp_path / f"result-{workload}-trace{trace}-seed7.json") as handle:
            detail = json.load(handle)
        assert detail["comparable"] is False
        assert detail["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        if trace == 1:
            spans = read_trace(str(tmp_path / f"trace-{workload}.json"))
            assert spans and all(span.end >= span.start for span in spans)
    assert [name for name in os.listdir(tmp_path) if name.startswith("tmp-")] == []
