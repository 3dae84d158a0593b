"""The repo's benchmark: four workloads, end-to-end metrics, per-layer attribution.

Everything that measures ``src/repro`` from the outside lives here; nothing
in this package is imported by the program.  Entry point: ``bench/run.py``
(see ``bench/README.md`` and the root ``BENCHMARK.json``).
"""

import json
import os
from typing import Any, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One BLAS thread per process.  Unpinned, OpenBLAS starts a thread per core in
#: each of the two shard workers and the 2-core box ingests an order of magnitude
#: slower (``cluster.blas_unpinned_ratio``); pinned numbers are the comparable ones.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared() -> Dict[str, Any]:
    """The root ``BENCHMARK.json``: what this directory has promised to measure."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)
