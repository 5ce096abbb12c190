"""Cluster construction and parallel-program execution.

* :mod:`repro.cluster.builder` — wires hosts, GigE ports and links into
  a mesh/torus and attaches a protocol stack (VIA or TCP);
* :mod:`repro.cluster.configs` — the paper's machines: the 256-node
  4x8x8 torus, the 384-node 6x8x8 torus, and the 128-node Myrinet
  comparator;
* :mod:`repro.cluster.process_api` — SPMD program execution: one
  generator per rank, MPI/QMP handles passed in.
"""

from repro._lazy import lazy_exports
from repro.cluster.builder import MeshCluster, MeshNode, build_mesh

#: Public name -> submodule, resolved on first access: a raw VIA or TCP
#: run builds a mesh and never loads the messaging core and MPI that
#: ``process_api`` stands on.
_EXPORTS = {
    "jlab_cluster_a": "configs",
    "jlab_cluster_b": "configs",
    "myrinet_cluster": "configs",
    "small_mesh": "configs",
    "build_engines": "process_api",
    "build_world": "process_api",
    "run_mpi": "process_api",
    "run_qmp": "process_api",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())

__all__ = [
    "MeshCluster",
    "MeshNode",
    "build_mesh",
    "jlab_cluster_a",
    "jlab_cluster_b",
    "myrinet_cluster",
    "small_mesh",
    "build_engines",
    "build_world",
    "run_mpi",
    "run_qmp",
]
