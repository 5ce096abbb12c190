"""4-D lattice domain decomposition onto the 3-D machine mesh.

"An LQCD calculation is carried out in a 4-dimensional box of points
... each node in a cluster operates on a regular 4-D sub-lattice ...
communicating 3-dimensional hyper-surface data to adjacent nodes"
(section 1).  Three lattice axes (x, y, z) are distributed over the
machine's three mesh axes; the time axis stays node-local.

Surface-to-volume: per iteration a node communicates
``2 * (ly*lz*lt + lx*lz*lt + lx*ly*lt)`` boundary sites out of
``lx*ly*lz*lt`` — the ratio falls as the local volume grows, which is
exactly the effect Table 1 shows ("gradual increase of GigE
performance with respect to the lattice size").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.topology.torus import Torus

#: Bytes per boundary site on the wire: a spin-projected half spinor,
#: 2 spins x 3 colors complex single precision (the production codes
#: communicated 32-bit).
HALF_SPINOR_BYTES = 2 * 3 * 2 * 4  # = 48


@dataclass(frozen=True)
class LocalLattice:
    """One node's sub-lattice: local extents (lx, ly, lz, lt)."""

    lx: int
    ly: int
    lz: int
    lt: int

    def __post_init__(self) -> None:
        for extent in (self.lx, self.ly, self.lz, self.lt):
            if extent < 2:
                raise ConfigurationError(
                    f"local extents must be >= 2, got {self.dims}"
                )

    @property
    def dims(self) -> Tuple[int, int, int, int]:
        return (self.lx, self.ly, self.lz, self.lt)

    @property
    def volume(self) -> int:
        return self.lx * self.ly * self.lz * self.lt

    def surface_sites(self, axis: int) -> int:
        """Boundary sites on one face perpendicular to machine ``axis``
        (0 -> x, 1 -> y, 2 -> z; t is never distributed)."""
        if axis == 0:
            return self.ly * self.lz * self.lt
        if axis == 1:
            return self.lx * self.lz * self.lt
        if axis == 2:
            return self.lx * self.ly * self.lt
        raise ConfigurationError(f"axis {axis} not distributed")

    def total_surface_sites(self) -> int:
        """All boundary sites exchanged per iteration (both faces,
        three distributed axes)."""
        return 2 * sum(self.surface_sites(axis) for axis in range(3))

    def surface_to_volume(self) -> float:
        return self.total_surface_sites() / self.volume

    def halo_bytes(self, axis: int,
                   site_bytes: int = HALF_SPINOR_BYTES) -> int:
        """Message size for one face exchange along machine ``axis``."""
        return self.surface_sites(axis) * site_bytes


@dataclass(frozen=True)
class SubLatticeDecomposition:
    """A global lattice split over a 3-D machine torus."""

    machine: Torus
    local: LocalLattice

    def __post_init__(self) -> None:
        if self.machine.ndim != 3:
            raise ConfigurationError(
                f"LQCD decomposition needs a 3-D machine, got "
                f"{self.machine.ndim}-D"
            )

    @property
    def global_dims(self) -> Tuple[int, int, int, int]:
        mx, my, mz = self.machine.dims
        return (self.local.lx * mx, self.local.ly * my,
                self.local.lz * mz, self.local.lt)

    def node_origin(self, rank: int) -> Tuple[int, int, int, int]:
        """Global coordinates of this node's first site."""
        cx, cy, cz = self.machine.coords(rank)
        return (cx * self.local.lx, cy * self.local.ly,
                cz * self.local.lz, 0)
