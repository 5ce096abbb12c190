"""Spanning trees for torus collectives.

The paper's broadcast "travels along a x axis first, then cross an xy
plane and finally through all yz planes" — i.e. the spanning tree where
a node's parent lies along the *highest* axis on which it differs from
the root, one hop closer along the minimal ring direction.  The number
of communication steps is roughly ``xdim/2 + ydim/2 + zdim/2``.

Also provides binomial trees for non-torus (sub-communicator)
fallbacks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import TopologyError
from repro.topology.torus import Direction, Torus

#: ``(parents, children)`` of every rank; see :func:`dimension_order_tree`.
Tree = Tuple[Tuple[Optional[int], ...], Tuple[Tuple[int, ...], ...]]


def dimension_order_tree(torus: Torus, root: int) -> Tree:
    """The dimension-order tree rooted at ``root``: ``(parents,
    children)``, each indexed by rank.

    Built once per ``(torus, root)`` and kept on the torus (its
    geometry is immutable), so the table lives exactly as long as the
    cluster it describes.  A rank's children are the neighbors whose
    parent it is, farthest from the root first (ties by rank) so that
    the long ring pipelines start as early as possible.
    """
    tree = torus._tree_cache.get(root)
    if tree is None:
        parents: List[Optional[int]] = []
        children: List[List[int]] = [[] for _ in torus.ranks()]
        for rank in torus.ranks():
            if rank == root:
                parents.append(None)
                continue
            # Toward the root along the highest axis that still
            # differs, the minimal way around the ring.
            offset = torus.offset(rank, root)
            axis = max(a for a, delta in enumerate(offset) if delta != 0)
            parent = torus.neighbor(
                rank, Direction(axis, 1 if offset[axis] > 0 else -1))
            parents.append(parent)
            # Each rank is listed once, under its one parent — also on
            # an extent-2 wrapped axis, where both directions reach it.
            children[parent].append(rank)
        for below in children:
            below.sort(key=lambda n: (-torus.distance(root, n), n))
        tree = torus._tree_cache[root] = (
            tuple(parents), tuple(map(tuple, children)))
    return tree


def _checked(torus: Torus, rank: int) -> int:
    if not 0 <= rank < torus.size:
        raise TopologyError(f"rank {rank} out of range [0, {torus.size})")
    return rank


def dimension_order_parent(torus: Torus, root: int,
                           rank: int) -> Optional[int]:
    """Parent of ``rank`` in the dimension-order tree (None at root)."""
    return dimension_order_tree(torus, root)[0][_checked(torus, rank)]


def dimension_order_children(torus: Torus, root: int,
                             rank: int) -> Tuple[int, ...]:
    """Children of ``rank``: the neighbors whose parent is ``rank``,
    farthest from the root first."""
    return dimension_order_tree(torus, root)[1][_checked(torus, rank)]


def tree_depth(torus: Torus, root: int) -> int:
    """Number of tree levels == broadcast steps lower bound.

    For a full torus this is ``sum(ceil(dim/2))`` over axes with
    extent > 1, the paper's step count.
    """
    children = dimension_order_tree(torus, root)[1]
    depth = 0
    level = children[root]
    while level:
        depth += 1
        level = [child for node in level for child in children[node]]
    return depth


# ---------------------------------------------------------------------------
# Binomial trees (generic fallback for arbitrary groups).
# ---------------------------------------------------------------------------

def binomial_parent(size: int, root: int, rank: int) -> Optional[int]:
    """Parent in a binomial tree over ranks 0..size-1 rooted at root."""
    if not 0 <= rank < size:
        raise TopologyError(f"rank {rank} out of range [0, {size})")
    relative = (rank - root) % size
    if relative == 0:
        return None
    # Clear the lowest set bit of the relative rank.
    parent_rel = relative & (relative - 1)
    return (parent_rel + root) % size


def binomial_children(size: int, root: int, rank: int) -> List[int]:
    """Children in the binomial tree (largest subtree last)."""
    relative = (rank - root) % size
    children = []
    mask = 1
    while mask < size:
        if relative & mask:
            break
        child_rel = relative | mask
        if child_rel < size:
            children.append((child_rel + root) % size)
        mask <<= 1
    return children
