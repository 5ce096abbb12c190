"""Sharded parallel simulation engine (conservative-window PDES).

Partitions the simulated torus into contiguous slabs, one simulator
per shard, synchronized by conservative time windows whose lookahead
is the minimum wire latency of any cut link.  ``nshards=1`` through
the same machinery is the bit-exact sequential reference; see
``docs/PDES.md`` for the partitioning, lookahead derivation and
determinism contract.
"""

from repro.pdes.runner import (
    CheckpointPolicy,
    InProcessShard,
    PdesResult,
    PipeShard,
    run_sharded,
)
from repro.pdes.shard import ShardConnectionManager, ShardRuntime
from repro.pdes.workloads import (
    WORKLOADS,
    Workload,
    far_peer,
    get_workload,
    neighbor_edges,
    tree_edges,
)

__all__ = [
    "CheckpointPolicy",
    "InProcessShard",
    "PdesResult",
    "PipeShard",
    "ShardConnectionManager",
    "ShardRuntime",
    "WORKLOADS",
    "Workload",
    "far_peer",
    "get_workload",
    "neighbor_edges",
    "run_sharded",
    "tree_edges",
]
