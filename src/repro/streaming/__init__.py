"""Distributed-streaming substrate: items, partitioning, network, protocols, runner."""

from .items import MatrixRow, MatrixRowBatch, WeightedItem, WeightedItemBatch
from .network import CommunicationLog, Direction, MessageKind, MessageRecord, Network
from .partition import (
    BlockPartitioner,
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    UniformRandomPartitioner,
)
from .protocol import DistributedProtocol
from .runner import (
    DEFAULT_CHUNK_SIZE,
    QueryObservation,
    RunResult,
    StreamingEngine,
)

__all__ = [
    "MatrixRow",
    "MatrixRowBatch",
    "WeightedItem",
    "WeightedItemBatch",
    "CommunicationLog",
    "Direction",
    "MessageKind",
    "MessageRecord",
    "Network",
    "BlockPartitioner",
    "HashPartitioner",
    "Partitioner",
    "RoundRobinPartitioner",
    "UniformRandomPartitioner",
    "DistributedProtocol",
    "DEFAULT_CHUNK_SIZE",
    "QueryObservation",
    "RunResult",
    "StreamingEngine",
]
