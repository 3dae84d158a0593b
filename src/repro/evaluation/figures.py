"""Section 6 of the paper as data: every table and figure is one ``FIGURES`` row.

Every number in Figure 1(a)–(f), Table 1 and Figures 2–4, 6–7 comes from one
loop — deal a stream round-robin to ``m`` sites, run one protocol, read
``err`` and ``msg``, repeat over a grid of ε, ``m``, β or dataset.  The loop
is :func:`sweep`; a *cell* is the experiment config with the swept field
replaced; a family (``"hh"`` / ``"matrix"``) supplies the workload (stream +
metrics) and a label → ``(spec, params)`` table that builds exactly the one
protocol a cell runs through :func:`repro.create`.

The config defaults mirror Section 6 (φ = 0.05, ε = 10⁻³ / 0.1, m = 50,
β = 1000, Zipf skew 2) at laptop-scale sizes; every size is a plain field.
``sample_constant`` scales the ``s = Θ((1/ε²)log(1/ε))`` sample size of the
sampling protocols (the paper does not report its constant), and
``max_samplers_with_replacement`` caps the with-replacement samplers, each of
which costs ``O(s)`` work per stream item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..api.registry import create
from ..api.tracker import Tracker
from ..data.datasets import load_dataset
from ..data.synthetic_matrix import SyntheticMatrix
from ..data.zipfian import ZipfianStreamGenerator
from ..sketch.priority_sampler import sample_size_for_epsilon
from ..streaming.items import WeightedItemBatch
from .metrics import evaluate_heavy_hitter_protocol, evaluate_matrix_protocol
from .sweep import ParameterSweep, SweepResult
from .tables import format_table, render_figure

__all__ = [
    "HeavyHitterConfig", "MatrixConfig", "DATASETS", "Workload", "Family",
    "FAMILIES", "Figure", "FIGURES", "CHOOSE_DATASET", "sweep",
    "grid", "figure_sweeps", "table_rows", "render",
    "load_experiment_dataset", "theoretical_message_bounds",
]

DATASETS = ("pamap", "msd")


@dataclass
class HeavyHitterConfig:
    """Configuration of the Section 6.1 weighted heavy-hitter experiments."""

    num_items: int = 30_000
    universe_size: int = 10_000
    skew: float = 2.0
    beta: float = 1_000.0
    phi: float = 0.05
    epsilon: float = 1e-3
    num_sites: int = 50
    seed: int = 42
    #: Engine chunk size for batched ingestion; ``None`` = item-at-a-time.
    chunk_size: Optional[int] = 4096
    sample_constant: float = 0.05
    max_samplers_with_replacement: int = 500
    epsilon_grid: List[float] = field(
        default_factory=lambda: [5e-4, 1e-3, 5e-3, 1e-2, 5e-2]
    )
    beta_grid: List[float] = field(
        default_factory=lambda: [1.0, 10.0, 100.0, 1_000.0, 10_000.0]
    )

    def scaled(self, num_items: int) -> "HeavyHitterConfig":
        """Return a copy with a different stream length (other fields unchanged)."""
        return replace(self, num_items=num_items,
                       epsilon_grid=list(self.epsilon_grid),
                       beta_grid=list(self.beta_grid))


@dataclass
class MatrixConfig:
    """Configuration of the Section 6.2 matrix-tracking experiments."""

    dataset: str = "pamap"
    num_rows: int = 8_000
    epsilon: float = 0.1
    num_sites: int = 50
    seed: int = 42
    #: Engine chunk size for batched ingestion; ``None`` = item-at-a-time.
    chunk_size: Optional[int] = 4096
    sample_constant: float = 1.0
    max_samplers_with_replacement: int = 300
    pamap_rank: int = 30
    msd_rank: int = 50
    epsilon_grid: List[float] = field(
        default_factory=lambda: [5e-3, 1e-2, 5e-2, 1e-1, 5e-1]
    )
    site_grid: List[int] = field(default_factory=lambda: [10, 25, 50, 75, 100])
    coordinator_sketch_size: Optional[int] = None

    def for_dataset(self, dataset: str) -> "MatrixConfig":
        """Return a copy targeting a different dataset."""
        return replace(self, dataset=dataset,
                       epsilon_grid=list(self.epsilon_grid),
                       site_grid=list(self.site_grid))

    def rank_for(self, dataset: Optional[str] = None) -> int:
        """The Table-1 truncation rank for the given (or configured) dataset."""
        name = (dataset or self.dataset).lower()
        return self.pamap_rank if name == "pamap" else self.msd_rank


# ------------------------------------------------------------------ workloads
@dataclass(frozen=True)
class Workload:
    """What a cell replays and how it is scored."""

    stream: Any
    evaluate: Callable[[Any], Dict[str, Any]]
    size: int
    dimension: Optional[int] = None  # matrix rows only
    rank: Optional[int] = None  # Table 1's truncation rank for the dataset


def _hh_workload(config: HeavyHitterConfig) -> Workload:
    sample = ZipfianStreamGenerator(
        universe_size=config.universe_size, skew=config.skew,
        beta=config.beta, seed=config.seed).generate(config.num_items)
    stream = (list(sample.items) if config.chunk_size is None
              else WeightedItemBatch.from_pairs(sample.items))

    def evaluate(protocol) -> Dict[str, Any]:
        return evaluate_heavy_hitter_protocol(
            protocol, sample.element_weights, config.phi,
            total_weight=sample.total_weight).as_dict()

    return Workload(stream, evaluate, size=config.num_items)


def load_experiment_dataset(config: MatrixConfig,
                            dataset: Optional[str] = None) -> SyntheticMatrix:
    """Load the surrogate dataset named by ``dataset`` (or the config default)."""
    return load_dataset((dataset or config.dataset).lower(),
                        num_rows=config.num_rows, seed=config.seed)


def _matrix_workload(config: MatrixConfig) -> Workload:
    dataset = load_experiment_dataset(config)
    rank = config.rank_for()
    rows = np.asarray(dataset.rows, dtype=np.float64)

    def evaluate(protocol) -> Dict[str, Any]:
        return {**evaluate_matrix_protocol(protocol, rows).as_dict(), "rank": rank}

    return Workload(rows, evaluate, size=dataset.num_rows,
                    dimension=dataset.dimension, rank=rank)


# ------------------------------------------------- label -> (spec, params) tables
def _sample_size(config, epsilon: float, stream_length: int) -> int:
    size = sample_size_for_epsilon(epsilon, config.sample_constant)
    return max(1, min(size, stream_length))


#: Where each constructor parameter of a cell's protocol comes from.
_PARAMS: Dict[str, Callable[[Any, Workload], Any]] = {
    "num_sites": lambda config, workload: config.num_sites,
    "epsilon": lambda config, workload: config.epsilon,
    "seed": lambda config, workload: config.seed,
    "dimension": lambda config, workload: workload.dimension,
    "coordinator_sketch_size":
        lambda config, workload: config.coordinator_sketch_size,
    "sample_size": lambda config, workload: _sample_size(
        config, config.epsilon, workload.size),
    "num_samplers": lambda config, workload: min(
        _sample_size(config, config.epsilon, workload.size),
        config.max_samplers_with_replacement),
    "sketch_size": lambda config, workload: workload.rank,
    "rank": lambda config, workload: workload.rank,
}


@dataclass(frozen=True)
class Family:
    """One protocol family: its config, workload and label table."""

    config: type
    #: The one config field the stream depends on (cells share a workload
    #: unless the sweep moves this field).
    stream_field: str
    workload: Callable[[Any], Workload]
    #: label -> (registry spec, the ``_PARAMS`` it is constructed with)
    protocols: Mapping[str, Tuple[str, str]]


FAMILIES: Dict[str, Family] = {
    "hh": Family(HeavyHitterConfig, "beta", _hh_workload, {
        "P1": ("hh/P1", "num_sites epsilon"),
        "P2": ("hh/P2", "num_sites epsilon"),
        "P3": ("hh/P3", "num_sites epsilon sample_size seed"),
        "P4": ("hh/P4", "num_sites epsilon seed"),
        "P3wr": ("hh/P3wr", "num_sites epsilon num_samplers seed"),
    }),
    "matrix": Family(MatrixConfig, "dataset", _matrix_workload, {
        "P1": ("matrix/P1", "num_sites dimension epsilon coordinator_sketch_size"),
        "P2": ("matrix/P2", "num_sites dimension epsilon coordinator_sketch_size"),
        "P3": ("matrix/P3", "num_sites dimension epsilon sample_size seed"),
        # Table 1's name for P3 (without replacement)
        "P3wor": ("matrix/P3", "num_sites dimension epsilon sample_size seed"),
        "P3wr": ("matrix/P3wr", "num_sites dimension epsilon num_samplers seed"),
        "P4": ("matrix/P4", "num_sites dimension epsilon seed"),
        "FD": ("matrix/FD", "num_sites dimension sketch_size"),
        "SVD": ("matrix/SVD", "num_sites dimension rank"),
    }),
}


# ---------------------------------------------------------------------- sweep
def sweep(family: str, parameter: str, values: Sequence[Any],
          labels: Sequence[str], config) -> SweepResult:
    """Run every ``label`` at every value of ``parameter`` (a config field).

    A cell is ``config`` with the swept field replaced: it builds one fresh
    protocol, deals the family's stream to its sites round-robin (a
    :class:`~repro.api.tracker.Tracker` session at ``config.chunk_size``;
    ``None`` = item-at-a-time) and records the Section 6 metrics.  The
    stream is materialised once per distinct value of the family's
    ``stream_field``, so only a β or dataset sweep makes several.
    """
    kind = FAMILIES[family]
    workloads: Dict[Any, Workload] = {}

    def cell(value) -> Tuple[Any, Workload]:
        at = replace(config, **{parameter: value})
        key = getattr(at, kind.stream_field)
        if key not in workloads:
            workloads[key] = kind.workload(at)
        return at, workloads[key]

    def run_one(protocol, value) -> Dict[str, Any]:
        workload = cell(value)[1]
        Tracker(protocol, chunk_size=config.chunk_size).run(workload.stream)
        return workload.evaluate(protocol)

    def factory(label: str) -> Callable[[Any], Any]:
        spec, params = kind.protocols[label]
        return lambda value: create(spec, **{
            name: _PARAMS[name](*cell(value)) for name in params.split()})

    return ParameterSweep(parameter, values).run(
        {label: factory(label) for label in labels}, run_one)


# -------------------------------------------------------------- the figure table
#: ``Figure.dataset`` value for figures whose dataset the caller chooses
#: (the CLI's ``--dataset``, i.e. ``MatrixConfig.dataset``).
CHOOSE_DATASET = "--dataset"

#: One output block: the swept parameter, what to print of that sweep — a
#: metric name (one series per label) or a tuple of columns (flat rows) —
#: and the title (``{dataset}`` is filled in).
Panel = Tuple[str, Union[str, Tuple[str, ...]], str]


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper (and one CLI command)."""

    name: str
    help: str
    family: str
    labels: Tuple[str, ...]
    panels: Tuple[Panel, ...]
    #: ``None`` (not applicable), a fixed dataset, or :data:`CHOOSE_DATASET`.
    dataset: Optional[str] = None


_P123 = ("P1", "P2", "P3")
_P1234 = ("P1", "P2", "P3", "P4")


def _figure23(number: str, dataset: str, description: str) -> Figure:
    return Figure(
        f"figure{number}",
        f"Matrix tracking on the {description} dataset (epsilon and site sweeps)",
        "matrix", _P123, (
            ("epsilon", "err", f"Figure {number}(a): error vs epsilon"),
            ("epsilon", "msg", f"Figure {number}(b): messages vs epsilon"),
            ("num_sites", "msg", f"Figure {number}(c): messages vs sites"),
            ("num_sites", "err", f"Figure {number}(d): error vs sites"),
        ), dataset=dataset)


FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    Figure("figure1",
           "Heavy hitters: recall/precision/err/msg vs epsilon (panels a-d)",
           "hh", _P1234, (
               ("epsilon", "recall", "Figure 1(a): recall vs epsilon"),
               ("epsilon", "precision", "Figure 1(b): precision vs epsilon"),
               ("epsilon", "err", "Figure 1(c): avg error of true HH vs epsilon"),
               ("epsilon", "msg", "Figure 1(d): messages vs epsilon"),
           )),
    Figure("figure1e", "Heavy hitters: error vs messages trade-off (panel e)",
           "hh", _P1234, (
               ("epsilon", ("protocol", "epsilon", "msg", "err"),
                "Figure 1(e): error vs messages"),
           )),
    # The paper tunes each protocol to a common measured error before varying
    # beta; here all use the config's epsilon, which equally holds accuracy
    # fixed while the weight scale changes.
    Figure("figure1f", "Heavy hitters: messages vs beta (panel f)",
           "hh", _P1234, (("beta", "msg", "Figure 1(f): messages vs beta"),)),
    Figure("table1",
           "Matrix tracking: err and msg for all methods on both datasets",
           "matrix", ("P1", "P2", "P3wor", "P3wr", "FD", "SVD"), (
               ("dataset", ("dataset", "method", "err", "msg", "sketch_rows",
                            "rank"), "Table 1"),
           )),
    _figure23("2", "pamap", "PAMAP-like"),
    _figure23("3", "msd", "MSD-like"),
    Figure("figure4", "Matrix tracking: messages vs error frontier",
           "matrix", _P123, (
               ("epsilon", ("protocol", "epsilon", "err", "msg"),
                "Figure 4: messages vs error ({dataset})"),
           ), dataset=CHOOSE_DATASET),
    Figure("figure67", "Appendix-C protocol P4 against P1-P3",
           "matrix", _P1234, (
               ("epsilon", "err",
                "Figures 6/7(a): error vs epsilon with P4 ({dataset})"),
               ("num_sites", "err",
                "Figures 6/7(b): error vs sites with P4 ({dataset})"),
           ), dataset=CHOOSE_DATASET),
)}


def grid(config, parameter: str) -> List[Any]:
    """The values ``parameter`` is swept over: the config's grid for it."""
    if parameter == "dataset":
        return list(DATASETS)
    return list(getattr(config, {"num_sites": "site_grid"}.get(
        parameter, f"{parameter}_grid")))


def figure_sweeps(name: str, config=None) -> Dict[str, SweepResult]:
    """Run the sweeps behind ``FIGURES[name]``: ``{swept parameter: result}``."""
    figure = FIGURES[name]
    config = config if config is not None else FAMILIES[figure.family].config()
    if figure.dataset in DATASETS:
        config = config.for_dataset(figure.dataset)
    return {parameter: sweep(figure.family, parameter, grid(config, parameter),
                             figure.labels, config)
            for parameter in dict.fromkeys(panel[0] for panel in figure.panels)}


def table_rows(result: SweepResult) -> List[Dict[str, Any]]:
    """Flat rows of a sweep; Table 1 calls the protocol label ``method``."""
    return [{**row, "method": row["protocol"]} for row in result.rows()]


def render(name: str, config) -> List[str]:
    """The text blocks of ``FIGURES[name]``, one per panel, as the CLI prints them."""
    results = figure_sweeps(name, config)
    blocks = []
    for parameter, what, title in FIGURES[name].panels:
        title = title.format(dataset=getattr(config, "dataset", None))
        if isinstance(what, str):
            blocks.append(render_figure(results[parameter], what, title))
        else:
            blocks.append(format_table(table_rows(results[parameter]),
                                       columns=what, title=title))
    return blocks


def theoretical_message_bounds(config: HeavyHitterConfig, epsilon: float
                               ) -> Dict[str, float]:
    """Section 4's asymptotic message bounds at the config (a sanity ceiling:
    measured counts should exceed them by constant factors at most)."""
    m, n = config.num_sites, config.num_items
    log_bn = math.log(max(2.0, config.beta * n))
    s = _sample_size(config, epsilon, n)
    return {
        "P1": (m / epsilon ** 2) * log_bn,
        "P2": (m / epsilon) * log_bn,
        "P3": (m + s) * math.log(max(2.0, config.beta * n / s)),
        "P4": (math.sqrt(m) / epsilon) * log_bn,
    }
