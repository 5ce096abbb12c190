"""What a node and a channel end keep alive on the host, counted.

    PYTHONPATH=src python3 tools/footprint.py

Run from the root of a checkout (~20 s).  Prints three things:

* the traced KB per node after a 3x3x3 bring-up, split into the mesh
  part (``build_mesh``: ports, links, kernel agents) and the world
  part (``build_world``: engines and the six neighbour channels);
* the objects and bytes of one bring-up channel end (the world part
  over its 162 channel ends);
* the all-pairs open on 4x4x4: after the neighbour bring-up, every
  rank opens a channel to every other, and the bytes per new channel
  end, the host seconds and the simulated events of that open (the
  seconds and events are read from an untraced second run).

It prints instead of asserting, so the same file reads the state of
any commit: to measure a parent, export it (``git archive REV | tar
-x -C DIR``), copy this file over it and run it there.  EXPERIMENTS.md,
"What a channel holds", holds the numbers.
"""

from __future__ import annotations

import gc
import platform
import sys
import time
import tracemalloc

sys.path.insert(0, "src")

from repro.cluster.builder import build_mesh  # noqa: E402
from repro.cluster.process_api import build_engines, build_world  # noqa: E402


def _census() -> tuple:
    """GC-tracked object count and traced bytes, after a collection."""
    gc.collect()
    return len(gc.get_objects()), tracemalloc.get_traced_memory()[0]


def bringup() -> None:
    build_world(build_mesh((2, 2, 2)))       # warm every lazy import/cache
    tracemalloc.start()
    try:
        start = _census()
        cluster = build_mesh((3, 3, 3))
        meshed = _census()
        comms = build_world(cluster)
        built = _census()
    finally:
        tracemalloc.stop()
    nodes = len(cluster.nodes)
    ends = sum(len(comm.engine.channels) for comm in comms)
    mesh_kb = (meshed[1] - start[1]) / nodes / 1024
    world_kb = (built[1] - meshed[1]) / nodes / 1024
    print(f"3x3x3 bring-up: {mesh_kb + world_kb:.1f} KB per node "
          f"(mesh {mesh_kb:.1f} + world {world_kb:.1f})")
    print(f"  per bring-up channel end ({ends}): "
          f"{(built[0] - meshed[0]) / ends:.1f} objects, "
          f"{(built[1] - meshed[1]) / ends:.0f} B")


def _open_all_pairs(traced: bool) -> tuple:
    """(new channel ends, bytes grown, host seconds, events) of one
    all-pairs open on a 4x4x4 torus with its neighbours connected."""
    cluster = build_mesh((4, 4, 4))
    engines = build_engines(cluster)
    sim = cluster.sim
    before_ends = sum(len(engine.channels) for engine in engines)
    if traced:
        tracemalloc.start()
    try:
        start = _census()
        events = sim.events_processed
        t0 = time.perf_counter()
        processes = [sim.spawn(engine.ensure_channel(peer))
                     for engine in engines
                     for peer in range(len(engines))
                     if peer > engine.rank
                     and peer not in engine.channels]
        for process in processes:
            sim.run_until_complete(process)
        seconds = time.perf_counter() - t0
        events = sim.events_processed - events
        grown = _census()[1] - start[1]
    finally:
        if traced:
            tracemalloc.stop()
    ends = sum(len(engine.channels) for engine in engines) - before_ends
    return ends, grown, seconds, events


def all_pairs() -> None:
    ends, grown, _, _ = _open_all_pairs(traced=True)
    _, _, seconds, events = _open_all_pairs(traced=False)
    print(f"4x4x4 all-pairs open: {ends} new channel ends, "
          f"{grown / ends:.0f} B each, +{grown / 2**20:.1f} MB; "
          f"{seconds:.2f} s host, {events} events")


def main() -> None:
    print(f"python {platform.python_version()}, {platform.machine()}")
    bringup()
    all_pairs()


if __name__ == "__main__":
    main()
