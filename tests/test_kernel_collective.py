"""Tests for interrupt-level collectives (paper section 7)."""

import numpy as np
import pytest

from repro.cluster import build_mesh, build_world, run_mpi
from repro.errors import ViaError
from repro.mpi.op import MAX, SUM


def _enabled_cluster(dims=(2, 2, 2)):
    cluster = build_mesh(dims, wrap=True)
    comms = build_world(cluster)
    for node in cluster.nodes:
        node.via.enable_kernel_collectives()
    return cluster, comms


def test_kernel_global_sum_correct():
    cluster, comms = _enabled_cluster()

    def program(comm):
        comm.set_collective_tier("kernel")
        result = yield from comm.allreduce(
            nbytes=8, data=np.float64(comm.rank + 1), op=SUM
        )
        return float(result)

    assert run_mpi(cluster, program, comms=comms) == [36.0] * 8


def test_kernel_max():
    cluster, comms = _enabled_cluster()

    def program(comm):
        comm.set_collective_tier("kernel")
        result = yield from comm.allreduce(
            nbytes=8, data=np.float64(comm.rank), op=MAX
        )
        return float(result)

    assert run_mpi(cluster, program, comms=comms) == [7.0] * 8


def test_repeated_reductions_stay_consistent():
    """Four combines back to back on the engine itself, rooted at 0."""
    cluster, comms = _enabled_cluster()

    def program(comm):
        engine = comm.engine.device.collective
        results = []
        for iteration in range(4):
            value = yield from engine.collective(
                "combine", 0, np.float64(comm.rank * (iteration + 1)),
                SUM, 8
            )
            results.append(float(value))
        return results

    outputs = run_mpi(cluster, program, comms=comms)
    expected = [sum(r * (i + 1) for r in range(8)) for i in range(4)]
    assert all(out == expected for out in outputs)


def test_kernel_faster_than_user_level():
    """The section 7 rationale: skipping the user-space crossings on
    intermediate hops lowers the total latency."""
    cluster, comms = _enabled_cluster((2, 4, 4))
    times = {}

    def program(comm):
        sim = comm.engine.sim
        yield from comm.barrier()
        start = sim.now
        yield from comm.allreduce(nbytes=8, data=np.float64(1.0))
        times.setdefault("u0", start)
        times["u1"] = max(times.get("u1", 0.0), sim.now)
        yield from comm.barrier()
        comm.set_collective_tier("kernel")
        start = sim.now
        yield from comm.allreduce(nbytes=8, data=np.float64(1.0))
        times.setdefault("k0", start)
        times["k1"] = max(times.get("k1", 0.0), sim.now)
        return None

    run_mpi(cluster, program, comms=comms)
    user = times["u1"] - times["u0"]
    kernel = times["k1"] - times["k0"]
    assert kernel < user


def test_enable_idempotent():
    """Re-enabling returns the existing engine — no silent replacement
    of in-flight state."""
    cluster = build_mesh((2, 2))
    first = cluster.nodes[0].via.enable_kernel_collectives()
    again = cluster.nodes[0].via.enable_kernel_collectives()
    assert again is first
    assert cluster.nodes[0].via.collective is first


def test_offload_tiers_mutually_exclusive():
    """One device runs one offload engine: kernel and NIC collectives
    cannot coexist (both would claim the same wire traffic)."""
    cluster = build_mesh((2, 2))
    cluster.nodes[0].via.enable_kernel_collectives()
    with pytest.raises(ViaError, match="mutually exclusive"):
        cluster.nodes[0].via.enable_nic_collectives()
    cluster.nodes[1].via.enable_nic_collectives()
    with pytest.raises(ViaError, match="mutually exclusive"):
        cluster.nodes[1].via.enable_kernel_collectives()


def test_nic_enable_idempotent():
    cluster = build_mesh((2, 2))
    first = cluster.nodes[0].via.enable_nic_collectives()
    assert cluster.nodes[0].via.enable_nic_collectives() is first


def test_packet_without_enablement_rejected():
    cluster = build_mesh((2, 2))
    comms = build_world(cluster)
    # Enable on one node only: its REDUCE packet hits a peer without
    # the kernel engine.
    cluster.nodes[1].via.enable_kernel_collectives()

    def program(comm):
        if comm.rank == 1:
            comm.set_collective_tier("kernel")
            yield from comm.allreduce(nbytes=8, data=np.float64(1.0))
        else:
            yield comm.engine.sim.timeout(1e6)
        return None

    with pytest.raises(ViaError):
        run_mpi(cluster, program, comms=comms)


def test_nic_packet_without_enablement_rejected():
    """A NIC collective frame arriving at a node without the engine is
    a configuration error, not silent host-path traffic."""
    cluster = build_mesh((2, 2))
    comms = build_world(cluster)
    cluster.nodes[1].via.enable_nic_collectives()

    def program(comm):
        if comm.rank == 1:
            comm.set_collective_tier("nic")
            yield from comm.allreduce(nbytes=8, data=1.0)
        else:
            yield comm.engine.sim.timeout(1e6)
        return None

    with pytest.raises(ViaError, match="NIC collectives are not"):
        run_mpi(cluster, program, comms=comms)
