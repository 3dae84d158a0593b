"""Child of the traced ``matrix_cluster`` run: one 2-shard process-backend pass.

Run once with the harness's BLAS pins and once without them; the ratio of
the two printed rates is ``cluster.blas_unpinned_ratio``.  The environment
is whatever the parent passed, which is the point.  Usage:
``blas_probe.py ROWS SEED``; prints rows/s.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [os.path.join(ROOT, "src")]


def main() -> int:
    from repro import ShardedTracker
    from repro.data import make_pamap_like

    rows = make_pamap_like(num_rows=int(sys.argv[1]), dimension=44, seed=int(sys.argv[2])).rows
    cluster = ShardedTracker.create("matrix/P2", shards=2, backend="process",
                                    num_sites=10, dimension=44, epsilon=0.1)
    try:
        begin = time.perf_counter()
        for start in range(0, rows.shape[0], 4096):
            cluster.push_batch(rows[start:start + 4096])
        cluster.flush()
        print(rows.shape[0] / (time.perf_counter() - begin))
    finally:
        cluster.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
