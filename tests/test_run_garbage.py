"""A run leaves no reference cycle behind it.

Whatever a run allocates per operation must die by reference count the
moment it is done with: a cycle per CPU hold or per MPI message (an
event whose value is the event itself) waits for the cyclic collector,
and on a 4x4x8 torus that was tens of thousands of objects per run and
a gen-2 collection in the middle of it.
"""

from __future__ import annotations

import gc
from collections import Counter

from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi


def _program(comm):
    value = yield from comm.bcast(root=0, nbytes=64,
                                  data="token" if comm.rank == 0 else None)
    total = yield from comm.allreduce(nbytes=8, data=float(comm.rank + 1))
    piece = yield from comm.scatter(
        root=0, nbytes=64,
        data=list(range(comm.size)) if comm.rank == 0 else None)
    yield from comm.barrier()
    return value, total, piece


def test_collectives_leave_no_cyclic_garbage():
    cluster = build_mesh((2, 2, 4), wrap=True)
    comms = build_world(cluster)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        results = run_mpi(cluster, _program, comms=comms)
        gc.collect()
        garbage = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert results == [("token", 136.0, rank) for rank in range(16)]
    # The cluster is still alive: only a cycle is unreachable here.
    assert cluster.sim.now > 0.0
    assert not garbage, garbage.most_common(8)
