"""Reduction: the reverse of the dimension-order broadcast.

"A reduction behaves very much like a reverse of a broadcast except
that each node carries out some reduction operations, such as sum,
before forwarding the reduced value to its neighbors" (section 5.2).
"""

from __future__ import annotations

from typing import Any

from repro.collectives.tree import (
    binomial_children,
    binomial_parent,
    dimension_order_tree,
)

TAG_REDUCE = 102


def reduce(comm, root: int, nbytes: int, op, data: Any):
    """Process: SPMD reduce; root returns the combined value, others None."""
    if comm.is_whole_torus:
        parents, children = dimension_order_tree(comm.torus, root)
        parent, children = parents[comm.rank], children[comm.rank]
    else:
        parent = binomial_parent(comm.size, root, comm.rank)
        children = binomial_children(comm.size, root, comm.rank)
    value = data
    # Receive children's partial results in completion order: post all
    # receives up front (multi-port), combine as they land.
    requests = [
        comm.coll_irecv(child, TAG_REDUCE, nbytes) for child in children
    ]
    for request in requests:
        yield from request.wait()
        value = op(value, request.received_data)
    if parent is not None:
        yield from comm.coll_isend(
            parent, TAG_REDUCE, nbytes, data=value
        ).wait()
        return None
    return value
