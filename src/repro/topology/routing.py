"""Minimal-path routing on the torus.

The paper's kernel-level packet switch routes with a simple
*Shortest-Direction-First* (SDF) rule: among the directions that lie on
a minimal path, choose the one with the smallest number of remaining
steps (§5.1).  These helpers are pure functions over
:class:`~repro.topology.torus.Torus` geometry so both the packet switch
model and the scatter algorithms share one implementation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.topology.torus import Direction, Torus

#: Hit/miss counters for the module-level routing caches below (the
#: per-pair SDF choice and minimal-direction sets).  Purely
#: observational — the cached functions are pure, so the caches cannot
#: change any simulation result.
CACHE_STATS = {"hits": 0, "misses": 0}

_MINDIR_CACHE: dict = {}
_SDF_CACHE: dict = {}


def clear_caches() -> None:
    """Drop the routing caches and reset :data:`CACHE_STATS`."""
    _MINDIR_CACHE.clear()
    _SDF_CACHE.clear()
    CACHE_STATS["hits"] = 0
    CACHE_STATS["misses"] = 0


@dataclass(frozen=True)
class RouteStep:
    """One hop of a route: the node left, the direction taken."""

    node: int
    direction: Direction


def torus_distance(torus: Torus, src: int, dst: int) -> int:
    """Minimal hop count (paper's ``distance(i)`` in §5.2).

    For a wrapped torus this is
    ``sum_axis min(|d_a - s_a|, dim_a - |d_a - s_a|)``.
    """
    return torus.distance(src, dst)


def minimal_directions(torus: Torus, src: int, dst: int) -> List[Direction]:
    """Directions at ``src`` that lie on some minimal path to ``dst``.

    At an exact half-ring displacement on a wrapped axis *both*
    directions are minimal (the OPT partition exploits this freedom to
    balance its regions).
    """
    key = (torus, src, dst)
    cached = _MINDIR_CACHE.get(key)
    if cached is not None:
        CACHE_STATS["hits"] += 1
        return list(cached)
    CACHE_STATS["misses"] += 1
    out = []
    for axis, delta in enumerate(torus.offset(src, dst)):
        if delta == 0:
            continue
        sign = 1 if delta > 0 else -1
        out.append(Direction(axis, sign))
        extent = torus.dims[axis]
        if torus.wrap and extent > 1 and 2 * abs(delta) == extent:
            out.append(Direction(axis, -sign))
    _MINDIR_CACHE[key] = tuple(out)
    return out


def sdf_next_direction(torus: Torus, src: int, dst: int,
                       forbidden: Sequence[Direction] = ()) -> Optional[Direction]:
    """Shortest-Direction-First choice at ``src`` toward ``dst``.

    Among minimal-path directions (excluding ``forbidden``), picks the
    axis with the *smallest* number of remaining steps, breaking ties by
    lowest axis then positive sign — the deterministic tie-break the
    rest of the package relies on.  Returns ``None`` when ``src == dst``
    or every minimal direction is forbidden.
    """
    # The common caller (the per-frame packet switch) never forbids
    # directions, so that case is memoized; ``forbidden`` changes the
    # answer and bypasses the cache.
    use_cache = not forbidden
    if use_cache:
        key = (torus, src, dst)
        if key in _SDF_CACHE:
            CACHE_STATS["hits"] += 1
            return _SDF_CACHE[key]
        CACHE_STATS["misses"] += 1
    offset = torus.offset(src, dst)
    best: Optional[Tuple[int, int, int]] = None
    best_direction: Optional[Direction] = None
    forbidden_set = set(forbidden)
    for axis, delta in enumerate(offset):
        if delta == 0:
            continue
        direction = Direction(axis, 1 if delta > 0 else -1)
        if direction in forbidden_set:
            continue
        rank = (abs(delta), axis, 0 if delta > 0 else 1)
        if best is None or rank < best:
            best = rank
            best_direction = direction
    if use_cache:
        _SDF_CACHE[key] = best_direction
    return best_direction


def sdf_path(torus: Torus, src: int, dst: int) -> List[RouteStep]:
    """Full SDF route from ``src`` to ``dst`` (empty when equal).

    The path length always equals ``torus.distance(src, dst)`` because
    SDF only ever takes minimal-path directions.
    """
    steps: List[RouteStep] = []
    node = src
    # A minimal path can never exceed the diameter; guard against bugs.
    for _ in range(torus.diameter() + 1):
        if node == dst:
            return steps
        direction = sdf_next_direction(torus, node, dst)
        if direction is None:  # pragma: no cover - defensive
            raise TopologyError(f"SDF stuck at node {node} toward {dst}")
        steps.append(RouteStep(node, direction))
        node = torus.neighbor(node, direction)
    raise TopologyError(
        f"SDF route from {src} to {dst} exceeded diameter "
        f"{torus.diameter()}"
    )  # pragma: no cover - defensive


def alive_path(torus: Torus, src: int, dst: int,
               alive: Callable[[int, Direction], bool],
               ) -> Optional[List[Direction]]:
    """Shortest path from ``src`` to ``dst`` using only live links.

    ``alive(node, direction)`` says whether the link out of ``node`` in
    ``direction`` is usable (fault recovery: dead links are excluded, so
    the result may be non-minimal).  Deterministic breadth-first search:
    nodes expand in FIFO order and directions in the fixed
    :meth:`~repro.topology.torus.Torus.directions` order, so every run
    with the same fault state picks the identical detour.  Returns the
    hop-by-hop direction list (empty when ``src == dst``) or ``None``
    when the live subgraph disconnects the pair.

    Not cached: link health is time-dependent.
    """
    if src == dst:
        return []
    directions = torus.directions()
    parent: dict = {src: None}
    frontier = deque((src,))
    while frontier:
        node = frontier.popleft()
        for direction in directions:
            if not torus.has_neighbor(node, direction):
                continue
            if not alive(node, direction):
                continue
            nxt = torus.neighbor(node, direction)
            if nxt in parent:
                continue
            parent[nxt] = (node, direction)
            if nxt == dst:
                path: List[Direction] = []
                while parent[nxt] is not None:
                    prev, step = parent[nxt]
                    path.append(step)
                    nxt = prev
                path.reverse()
                return path
            frontier.append(nxt)
    return None


def path_via_first_direction(torus: Torus, src: int, dst: int,
                             first: Direction) -> List[RouteStep]:
    """A minimal route that *starts* with ``first`` then follows SDF.

    Raises :class:`TopologyError` if ``first`` is not on a minimal path.
    """
    if first not in minimal_directions(torus, src, dst):
        raise TopologyError(
            f"direction {first} not on a minimal path {src}->{dst}"
        )
    steps = [RouteStep(src, first)]
    node = torus.neighbor(src, first)
    steps.extend(sdf_path(torus, node, dst))
    return steps
