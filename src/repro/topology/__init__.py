"""Network topology machinery: k-ary n-dimensional tori/meshes and the
switched Clos fabric used by the Myrinet comparator.

The paper's clusters are 3-D tori built from dual-port GigE adapters:
a 4x8x8 (256-node) and a 6x8x8 (384-node) machine, each node wired to
its six nearest neighbors.  Everything here is pure geometry — no
simulation dependencies — so the collective algorithms in
:mod:`repro.collectives` can be analyzed without running the DES.
"""

from repro._lazy import lazy_exports
from repro.topology.torus import Direction, Torus
from repro.topology.routing import (
    RouteStep,
    minimal_directions,
    sdf_next_direction,
    sdf_path,
    torus_distance,
)

#: Resolved on first access: the OPT scatter's partitions and the
#: Myrinet comparator's switched fabric are not on a mesh run's path.
_EXPORTS = {
    "OptPartition": "partition",
    "partition_regions": "partition",
    "ClosFabric": "switched",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())

__all__ = [
    "Torus",
    "Direction",
    "RouteStep",
    "torus_distance",
    "minimal_directions",
    "sdf_next_direction",
    "sdf_path",
    "OptPartition",
    "partition_regions",
    "ClosFabric",
]
