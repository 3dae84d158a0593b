"""``repro.cluster`` — sharded multi-tracker execution with mergeable answers.

The production-scale execution layer above :mod:`repro.api`:

* :mod:`repro.cluster.backends` — the string-keyed engine-backend registry
  (``serial``, ``thread``, ``process``, ``shm``, ``socket``) mirroring the
  protocol registry; the process backend keeps persistent workers and ships
  columnar batch chunks to them as :mod:`repro.wire` frames.
* :mod:`repro.cluster.worker_protocol` — the transport-agnostic wire-frame
  worker protocol shared by the process pipes and the socket connections.
* :mod:`repro.cluster.shm` — the same-host shared-memory backend: the
  worker protocol's pipe carries only control traffic while batch-chunk
  arrays travel through per-shard shared-memory rings.
* :mod:`repro.cluster.socket_backend` — the multi-host TCP backend and the
  :class:`WorkerServer` behind ``repro-experiments worker --listen``.
* :mod:`repro.cluster.sharding` — ``shard_of_rows``, the item → shard map
  that site sharding composes to under round-robin sites (kept for the
  benchmark harness; the routing itself is ``ShardedTracker.push_batch``).
* :mod:`repro.cluster.merge` — counter/message-count merges and the
  by-name shard entry points; how each query kind merges lives on the query
  classes (``Query.materials``/``Query.combine``).
* :mod:`repro.cluster.sharded_tracker` — the :class:`ShardedTracker`
  facade: shards own *sites* (``shard = site mod S``, each shard a
  coordinator over its ``⌈m/S⌉`` sites, so the threshold protocols spend one
  coordinator's messages at any ``S``), ``push_batch``/``run`` fan-out,
  merged ``query``/``stats``, and whole-cluster checkpoint/resume in one
  versioned file.
"""

from .backends import (
    DEFAULT_SHUTDOWN_TIMEOUT,
    BackendError,
    BackendSpec,
    EngineBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    backend_registry_rows,
    create_backend,
    get_backend_spec,
)
from .merge import merge_answer, merge_counter_maps, shard_query_materials
from .sharded_tracker import (
    CLUSTER_CHECKPOINT_VERSION,
    ShardedTracker,
    ShardedTrackerStats,
)
from .sharding import shard_of_rows
from .shm import ShmProcessBackend
from .socket_backend import (
    DEFAULT_IO_TIMEOUT,
    DEFAULT_REPLAY_LOG_BYTES,
    SocketBackend,
    WorkerServer,
    client_ssl_context,
    server_ssl_context,
)

__all__ = [
    # backends
    "BackendError",
    "BackendSpec",
    "EngineBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ShmProcessBackend",
    "SocketBackend",
    "WorkerServer",
    "available_backends",
    "backend_registry_rows",
    "create_backend",
    "get_backend_spec",
    "client_ssl_context",
    "server_ssl_context",
    "DEFAULT_IO_TIMEOUT",
    "DEFAULT_REPLAY_LOG_BYTES",
    "DEFAULT_SHUTDOWN_TIMEOUT",
    # sharding / merging
    "shard_of_rows",
    "merge_answer",
    "merge_counter_maps",
    "shard_query_materials",
    # the facade
    "ShardedTracker",
    "ShardedTrackerStats",
    "CLUSTER_CHECKPOINT_VERSION",
]
