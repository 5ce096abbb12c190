"""Broadcast: dimension-order tree on the torus (paper section 5.2).

"A broadcast is implemented via a simple algorithm that a broadcast
message travels along a x axis first, then cross an xy plane and
finally through all yz planes."  Every node receives from its parent,
then forwards to all of its children concurrently (multi-port).
Small-message cost is ~steps x per-hop latency: ~20 us per step, ~200
us on the 4x8x8 machine (10 steps) — Figure 5.
"""

from __future__ import annotations

from typing import Any

from repro.collectives.tree import (
    binomial_children,
    binomial_parent,
    dimension_order_tree,
)
from repro.mpi.request import waitall

#: Collective tags (the collective context isolates them from user
#: traffic; ordering within a communicator keeps reuse safe).
TAG_BCAST = 101


def bcast(comm, root: int, nbytes: int, data: Any):
    """Process: SPMD broadcast; returns the broadcast data on every rank."""
    if comm.is_whole_torus:
        parents, children = dimension_order_tree(comm.torus, root)
        parent, children = parents[comm.rank], children[comm.rank]
    else:
        parent = binomial_parent(comm.size, root, comm.rank)
        children = binomial_children(comm.size, root, comm.rank)
    if comm.rank != root:
        request = comm.coll_irecv(parent, TAG_BCAST, nbytes)
        yield from request.wait()
        data = request.received_data
    sends = [
        comm.coll_isend(child, TAG_BCAST, nbytes, data=data)
        for child in children
    ]
    yield from waitall(sends)
    return data
