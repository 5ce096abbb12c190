"""The Table 1 benchmark: LQCD Gflops/node and $/Mflops, GigE mesh vs
Myrinet switched cluster.

Per CG-style iteration each rank:

1. starts the six-face halo exchange (nonblocking),
2. computes the interior sites (overlapping communication and
   computation — a stated design goal of MPI/QMP, section 5),
3. waits for the halos, computes the boundary sites,
4. repeats for the second operator application (the normal equations
   apply D twice),
5. performs the fused global reduction of the iteration's inner
   products.

Computation is charged against a sustained single-node kernel rate
(the kernel itself runs nowhere here: its flop counts are the two
constants below, pinned to the counted kernels of the test oracle);
per the paper's "normalized to a single node for a fair comparison",
the same per-node kernel rate is used for both machines so the
comparison isolates the interconnect.  Communication is fully
simulated: the GigE run exercises MPI/QMP over the modified M-VIA on
the mesh; the Myrinet run uses the message-level Clos fabric model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.builder import MeshCluster, build_mesh
from repro.cluster.myrinet_world import MyriWorld
from repro.cluster.process_api import build_world, run_mpi
from repro.errors import BenchmarkError, ConfigurationError
from repro.lqcd.halo import HaloExchanger
from repro.lqcd.lattice import HALF_SPINOR_BYTES, LocalLattice
from repro.sim import Simulator
from repro.topology.torus import Direction, Torus

#: Sustained single-node kernel rate (Gflops).  SSE-optimized
#: staggered/Wilson kernels on a 2.67 GHz P4 Xeon ran ~1.4-1.5.
DEFAULT_COMPUTE_GFLOPS = 1.45

#: Standard staggered dslash flop count per site per application:
#: 8 SU(3) matrix-vector products (66 flops) + 7 3-vector complex adds
#: (6 flops) = 570.  ``tests/lqcd_oracle.py`` counts the same from the
#: kernel it runs.
DSLASH_FLOPS_PER_SITE = 8 * 66 + 7 * 6

#: Per-site flops of the CG linear algebra: 3 axpy-like updates and 2
#: local dot products on color vectors, each 3 components of one
#: complex multiply (6 flops) and one complex add (2 flops) = 120.
CG_LINALG_FLOPS_PER_SITE = 3 * 3 * 8 + 2 * 3 * 8


# -- cost model (paper sections 3 and 6) --------------------------------------
# Published anchors: each GigE adapter cost $140, $420 of networking per
# node; Myrinet/Infiniband ports ran ~$1000 (section 3).  The node base
# price reflects a 2003-era single-P4-Xeon server.  Table 1 reports
# estimated $/Mflops = per-node cost / (per-node Gflops x 1000), "based
# on the costs at the time of the GigE cluster installation".

@dataclass(frozen=True)
class ClusterCosts:
    """Per-node dollar costs of one cluster flavor."""

    node_base: float
    network_per_node: float
    label: str = ""

    @property
    def per_node(self) -> float:
        return self.node_base + self.network_per_node


#: 2.67 GHz P4 Xeon node, three dual-port GigE adapters at $140 each
#: ("a total expenditure of $420 for networking components on a
#: single node", section 3).
GIGE_MESH_COSTS = ClusterCosts(node_base=1400.0,
                               network_per_node=3 * 140.0,
                               label="GigE mesh")

#: 2.0 GHz P4 Xeon node + Myrinet LaNai9 port incl. switch share.
MYRINET_COSTS = ClusterCosts(node_base=1400.0,
                             network_per_node=1000.0,
                             label="Myrinet switched")


def dollars_per_mflops(costs: ClusterCosts, gflops_per_node: float) -> float:
    """Estimated $/Mflops for a cluster at a measured per-node rate."""
    if gflops_per_node <= 0:
        raise ConfigurationError(
            f"gflops must be positive, got {gflops_per_node}"
        )
    return costs.per_node / (gflops_per_node * 1000.0)


@dataclass(frozen=True)
class LqcdResult:
    """One Table 1 cell pair."""

    label: str
    local: LocalLattice
    iteration_us: float
    gflops_per_node: float
    dollars_per_mflops: float

    @property
    def efficiency(self) -> float:
        return self.gflops_per_node / DEFAULT_COMPUTE_GFLOPS


def _neighbors_map(torus: Torus, rank: int) -> Dict[Tuple[int, int], int]:
    out = {}
    for axis in range(3):
        for sign in (+1, -1):
            out[(axis, sign)] = torus.neighbor(rank, Direction(axis, sign))
    return out


def flops_per_iteration(local: LocalLattice) -> int:
    """Two operator applications plus the CG linear algebra."""
    return local.volume * (
        2 * DSLASH_FLOPS_PER_SITE + CG_LINALG_FLOPS_PER_SITE
    )


def _lqcd_program(comm, torus: Torus, local: LocalLattice,
                  compute_gflops: float, iterations: int,
                  compute_fn, results: list):
    """SPMD benchmark iteration loop (transport-agnostic)."""
    rank = comm.rank
    exchanger = HaloExchanger(comm, _neighbors_map(torus, rank), local,
                              site_bytes=HALF_SPINOR_BYTES)
    volume = local.volume
    boundary = local.total_surface_sites()
    interior = max(volume - boundary, 0)
    rate = compute_gflops * 1000.0  # flops per us
    interior_us = interior * DSLASH_FLOPS_PER_SITE / rate
    boundary_us = boundary * DSLASH_FLOPS_PER_SITE / rate
    linalg_us = volume * CG_LINALG_FLOPS_PER_SITE / rate
    yield from comm.barrier()
    start = comm_now(comm)
    for _ in range(iterations):
        for _application in range(2):
            recvs, sends = exchanger.start(None)
            yield from compute_fn(comm, interior_us)
            yield from exchanger.finish(recvs, sends)
            yield from compute_fn(comm, boundary_us)
        yield from compute_fn(comm, linalg_us)
        # Fused global reduction of the iteration's inner products.
        yield from comm.allreduce(nbytes=16, data=None)
    elapsed = comm_now(comm) - start
    results.append(elapsed / iterations)
    return elapsed / iterations


def comm_now(comm) -> float:
    """Simulated time, for either transport."""
    if hasattr(comm, "engine"):
        return comm.engine.sim.now
    return comm.sim.now


def _gige_compute(comm, duration: float):
    """GigE nodes: computation contends with protocol work on the one
    CPU (lowest priority, as a compute loop would be)."""
    if duration > 0:
        yield from comm.engine.device.host.compute(duration)


def _myri_compute(comm, duration: float):
    """Myrinet/GM offloads protocol to the LaNai; plain wall time."""
    if duration > 0:
        yield from comm.compute(duration)


class LqcdBenchmark:
    """Builds clusters and produces Table 1 rows."""

    def __init__(self, gige_dims: Sequence[int] = (4, 8, 8),
                 myrinet_hosts: int = 128,
                 myrinet_logical_dims: Sequence[int] = (4, 4, 8),
                 compute_gflops: float = DEFAULT_COMPUTE_GFLOPS,
                 iterations: int = 4) -> None:
        self.gige_dims = tuple(gige_dims)
        self.myrinet_hosts = myrinet_hosts
        self.myrinet_logical = Torus(myrinet_logical_dims)
        if self.myrinet_logical.size != myrinet_hosts:
            raise BenchmarkError(
                f"logical dims {myrinet_logical_dims} != {myrinet_hosts} "
                f"hosts"
            )
        self.compute_gflops = compute_gflops
        self.iterations = iterations
        self._gige_cluster: Optional[MeshCluster] = None
        self._gige_comms = None

    # -- GigE mesh ------------------------------------------------------------
    def _gige_world(self):
        if self._gige_cluster is None:
            self._gige_cluster = build_mesh(self.gige_dims, wrap=True)
            self._gige_comms = build_world(self._gige_cluster)
        return self._gige_cluster, self._gige_comms

    def run_gige(self, local: LocalLattice) -> LqcdResult:
        cluster, comms = self._gige_world()
        results: list = []
        run_mpi(
            cluster, _lqcd_program,
            args=(cluster.torus, local, self.compute_gflops,
                  self.iterations, _gige_compute, results),
            comms=comms,
        )
        iteration_us = max(results)
        return self._result("GigE mesh", GIGE_MESH_COSTS, local,
                            iteration_us)

    # -- Myrinet comparator -----------------------------------------------------
    def run_myrinet(self, local: LocalLattice) -> LqcdResult:
        sim = Simulator()
        world = MyriWorld(sim, self.myrinet_hosts)
        results: list = []
        processes = [
            sim.spawn(
                _lqcd_program(comm, self.myrinet_logical, local,
                              self.compute_gflops, self.iterations,
                              _myri_compute, results),
                name=f"lqcd-myri[{comm.rank}]",
            )
            for comm in world.comms
        ]
        for process in processes:
            sim.run_until_complete(process)
        iteration_us = max(results)
        return self._result("Myrinet switched", MYRINET_COSTS, local,
                            iteration_us)

    def _result(self, label: str, costs: ClusterCosts,
                local: LocalLattice, iteration_us: float) -> LqcdResult:
        flops = flops_per_iteration(local)
        gflops = flops / iteration_us / 1000.0
        return LqcdResult(
            label=label,
            local=local,
            iteration_us=iteration_us,
            gflops_per_node=gflops,
            dollars_per_mflops=dollars_per_mflops(costs, gflops),
        )

    # -- Table 1 ---------------------------------------------------------------
    def table1(self, locals_: Optional[Sequence[LocalLattice]] = None,
               ) -> List[Tuple[LqcdResult, LqcdResult]]:
        """(Myrinet, GigE) result pairs per lattice size."""
        if locals_ is None:
            locals_ = [LocalLattice(L, L, L, L) for L in (6, 8, 10, 12)]
        rows = []
        for local in locals_:
            myri = self.run_myrinet(local)
            gige = self.run_gige(local)
            rows.append((myri, gige))
        return rows
