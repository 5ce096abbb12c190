"""k-ary n-dimensional torus (mesh with wraparound links).

Ranks are laid out in row-major order over the coordinate tuple, the
same convention the paper uses when it names a node by ``(x, y, z)``.
Following the paper, "mesh" always means mesh *with wraparound* (i.e. a
torus) unless ``wrap=False`` is given explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.errors import TopologyError

Coords = Tuple[int, ...]


@dataclass(frozen=True, order=True)
class Direction:
    """One of the 2*ndim mesh directions: ``axis`` and ``sign`` (+1/-1).

    ``port`` is the conventional adapter-port numbering used throughout
    the package: ``2*axis`` for the positive direction, ``2*axis + 1``
    for the negative one — i.e. the +x/-x pair is the first dual-port
    adapter, +y/-y the second, +z/-z the third.
    """

    axis: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise TopologyError(f"direction sign must be +-1, got {self.sign}")
        if self.axis < 0:
            raise TopologyError(f"direction axis must be >= 0, got {self.axis}")

    @property
    def port(self) -> int:
        return 2 * self.axis + (0 if self.sign > 0 else 1)

    @property
    def opposite(self) -> "Direction":
        return Direction(self.axis, -self.sign)

    @classmethod
    def from_port(cls, port: int) -> "Direction":
        if port < 0:
            raise TopologyError(f"port must be >= 0, got {port}")
        return cls(port // 2, 1 if port % 2 == 0 else -1)

    def __str__(self) -> str:
        return f"{'+' if self.sign > 0 else '-'}{'xyzw'[self.axis] if self.axis < 4 else self.axis}"


class Torus:
    """Geometry of a k-ary n-dim mesh, optionally with wraparound.

    Parameters
    ----------
    dims:
        Size along each axis, e.g. ``(4, 8, 8)`` for the paper's
        256-node machine.
    wrap:
        Whether wraparound (torus) links exist.  The paper's clusters
        are tori.
    """

    def __init__(self, dims: Sequence[int], wrap: bool = True) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise TopologyError("torus needs at least one dimension")
        if any(d < 1 for d in dims):
            raise TopologyError(f"all dimensions must be >= 1, got {dims}")
        self.dims: Coords = dims
        self.wrap = wrap
        # Immutable, and hashed on every routing-cache lookup.
        self._hash = hash((dims, wrap))
        self._strides = []
        stride = 1
        for d in reversed(dims):
            self._strides.append(stride)
            stride *= d
        self._strides.reverse()
        self.size = stride
        self._coords = None  # rank -> coordinates, built on first use
        # Geometry is immutable, so displacement queries are memoized
        # per instance; the packet switch asks for the same (src, dst)
        # pairs millions of times during a bandwidth sweep.
        self._offset_cache: dict = {}
        self._distance_cache: dict = {}
        #: root -> dimension-order spanning tree over every rank, filled
        #: by :func:`repro.collectives.tree.dimension_order_tree`.
        self._tree_cache: dict = {}
        self.cache_stats = {"hits": 0, "misses": 0}

    # -- basic properties -----------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def num_ports(self) -> int:
        """Links per node: 2 per axis (axes of extent 1 still count 0).

        An axis of extent 1 has no neighbors; extent 2 without wrap has
        one.  ``num_ports`` reports the *maximum* degree, which for the
        paper's tori (all extents >= 2, wrapped) equals ``2 * ndim``.
        """
        return 2 * sum(1 for d in self.dims if d > 1)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        shape = "x".join(str(d) for d in self.dims)
        kind = "torus" if self.wrap else "mesh"
        return f"Torus({shape} {kind}, {self.size} nodes)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Torus)
            and self.dims == other.dims
            and self.wrap == other.wrap
        )

    def __hash__(self) -> int:
        return self._hash

    # -- rank/coordinate mapping ----------------------------------------------
    def coords(self, rank: int) -> Coords:
        """Coordinates of ``rank`` (row-major)."""
        if not 0 <= rank < self.size:
            raise TopologyError(f"rank {rank} out of range [0, {self.size})")
        if self._coords is None:
            self._coords = list(itertools.product(*map(range, self.dims)))
        return self._coords[rank]

    def rank(self, coords: Sequence[int]) -> int:
        """Rank of the node at ``coords`` (coordinates must be in range)."""
        if len(coords) != self.ndim:
            raise TopologyError(
                f"expected {self.ndim} coordinates, got {len(coords)}"
            )
        rank = 0
        for c, dim, stride in zip(coords, self.dims, self._strides):
            if not 0 <= c < dim:
                raise TopologyError(f"coordinate {c} out of range [0, {dim})")
            rank += c * stride
        return rank

    def wrap_coords(self, coords: Sequence[int]) -> Coords:
        """Reduce arbitrary integer coordinates modulo the torus dims."""
        if not self.wrap:
            raise TopologyError("wrap_coords on a non-wrapping mesh")
        return tuple(c % d for c, d in zip(coords, self.dims))

    def ranks(self) -> Iterator[int]:
        return iter(range(self.size))

    # -- neighbors ----------------------------------------------------------
    def directions(self) -> List[Direction]:
        """All directions with a neighbor (skips axes of extent 1)."""
        out = []
        for axis, extent in enumerate(self.dims):
            if extent > 1:
                out.append(Direction(axis, +1))
                out.append(Direction(axis, -1))
        return out

    def neighbor(self, rank: int, direction: Direction) -> int:
        """Neighbor rank one hop away, or raise if none exists."""
        coords = list(self.coords(rank))
        axis, sign = direction.axis, direction.sign
        if axis >= self.ndim:
            raise TopologyError(f"axis {axis} out of range for {self!r}")
        extent = self.dims[axis]
        if extent == 1:
            raise TopologyError(f"axis {axis} has extent 1: no neighbor")
        c = coords[axis] + sign
        if self.wrap:
            c %= extent
        elif not 0 <= c < extent:
            raise TopologyError(
                f"no neighbor of rank {rank} in direction {direction}"
            )
        coords[axis] = c
        return self.rank(coords)

    def has_neighbor(self, rank: int, direction: Direction) -> bool:
        if direction.axis >= self.ndim:
            return False
        extent = self.dims[direction.axis]
        if extent == 1:
            return False
        if self.wrap:
            return True
        c = self.coords(rank)[direction.axis] + direction.sign
        return 0 <= c < extent

    def neighbors(self, rank: int) -> List[Tuple[Direction, int]]:
        """All (direction, neighbor rank) pairs for ``rank``."""
        out = []
        for direction in self.directions():
            if self.has_neighbor(rank, direction):
                out.append((direction, self.neighbor(rank, direction)))
        return out

    # -- displacement -----------------------------------------------------------
    def offset(self, src: int, dst: int) -> Coords:
        """Signed minimal per-axis displacement from ``src`` to ``dst``.

        On a wrapped axis the displacement is the shorter way around;
        an exact half-way tie resolves to the positive direction.
        """
        cached = self._offset_cache.get((src, dst))
        if cached is not None:
            self.cache_stats["hits"] += 1
            return cached
        self.cache_stats["misses"] += 1
        sc, dc = self.coords(src), self.coords(dst)
        out = []
        for s, d, extent in zip(sc, dc, self.dims):
            delta = d - s
            if self.wrap and extent > 1:
                delta %= extent
                if delta > extent / 2:
                    delta -= extent
                elif delta == extent / 2:
                    delta = extent // 2  # tie: go positive
            out.append(delta)
        result = tuple(out)
        self._offset_cache[(src, dst)] = result
        return result

    def distance(self, src: int, dst: int) -> int:
        """Minimal hop count between ``src`` and ``dst``."""
        cached = self._distance_cache.get((src, dst))
        if cached is not None:
            return cached
        result = sum(abs(delta) for delta in self.offset(src, dst))
        self._distance_cache[(src, dst)] = result
        return result

    def diameter(self) -> int:
        """Maximum distance between any two nodes."""
        if self.wrap:
            return sum(d // 2 for d in self.dims)
        return sum(d - 1 for d in self.dims)

    # -- projections ------------------------------------------------------------
    def project(self, keep_axes: Sequence[int]) -> "Torus":
        """Sub-torus over a subset of axes (paper: 4-D machine projected
        to various 3-D configurations)."""
        keep = tuple(keep_axes)
        if not keep or any(not 0 <= a < self.ndim for a in keep):
            raise TopologyError(f"bad projection axes {keep} for {self!r}")
        return Torus([self.dims[a] for a in keep], wrap=self.wrap)
