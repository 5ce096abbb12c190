"""One offload call at both sites: the communicator hands ``bcast`` and
``reduce`` to the kernel and NIC engines as themselves, and the op state
each engine keeps for recovery lasts until the next combine."""

import numpy as np
import pytest

from repro.cluster import build_mesh, build_world, run_mpi
from repro.hw.params import ViaParams

DIMS = (2, 2, 2)
SITES = ("kernel", "nic")


def _offload_world(tier, via_params=None):
    cluster = build_mesh(DIMS, via_params=via_params)
    comms = build_world(cluster)
    engines = [getattr(node.via, f"enable_{tier}_collectives")()
               for node in cluster.nodes]
    for comm in comms:
        comm.set_collective_tier(tier)
    return cluster, comms, engines


def _stat_totals(engines):
    totals = {}
    for engine in engines:
        for key, value in engine.stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


@pytest.mark.parametrize("tier", SITES)
def test_bcast_is_one_wave(tier):
    """A broadcast is the wave alone: one frame per tree edge, no fold."""
    cluster, comms, engines = _offload_world(tier)

    def program(comm):
        result = yield from comm.bcast(
            root=0, nbytes=256, data="x" if comm.rank == 0 else None)
        return result

    assert run_mpi(cluster, program, comms=comms) == ["x"] * 8
    totals = _stat_totals(engines)
    assert (totals["combines"], totals["forwards"]) == (0, 7)


@pytest.mark.parametrize("tier", SITES)
def test_reduce_climbs_once_and_completes_at_root(tier):
    """A reduce is the climb alone, to its own root: one frame per tree
    edge and one completion, at the root."""
    cluster, comms, engines = _offload_world(tier)

    def program(comm):
        result = yield from comm.reduce(
            root=3, nbytes=8, data=np.float64(comm.rank + 1))
        return result

    results = run_mpi(cluster, program, comms=comms)
    assert results[3] == 36.0
    assert results[:3] + results[4:] == [None] * 7
    totals = _stat_totals(engines)
    assert (totals["forwards"], totals["completions"]) == (7, 1)


@pytest.mark.parametrize("tier", SITES)
def test_bcast_and_reduce_keep_op_state_until_the_next_combine(tier):
    """With recovery on, every finished op is kept to answer asks until
    a combine (here a barrier) proves no rank asks about it again."""
    cluster, comms, engines = _offload_world(
        tier, ViaParams(reliable=True))
    kept_before_barrier = {}

    def program(comm):
        engine = comm.engine.device.collective
        for i in range(5):
            yield from comm.bcast(root=i % comm.size, nbytes=64,
                                  data=i if comm.rank == i else None)
            yield from comm.reduce(root=(3 * i + 1) % comm.size,
                                   nbytes=8, data=np.float64(comm.rank))
        kept_before_barrier[comm.rank] = len(engine._done)
        yield from comm.barrier()

    run_mpi(cluster, program, comms=comms)
    assert set(kept_before_barrier.values()) <= {9, 10}
    for engine in engines:
        assert list(engine._done) == [engine._sequence] == [11]
