"""What a node and a channel end keep alive on the host, counted.

    PYTHONPATH=src python3 tools/footprint.py

Run from the root of a checkout (~60 s).  Prints four things:

* the traced KB per node after a 3x3x3 bring-up, split into the mesh
  part (``build_mesh``: ports, links, kernel agents) and the world
  part (``build_world``: engines and the six neighbour channels);
* the objects and bytes of one bring-up channel end (the world part
  over its 162 channel ends);
* the all-pairs open on 4x4x4: after the neighbour bring-up, every
  rank opens a channel to every other, and the bytes per new channel
  end, the host seconds and the simulated events of that open (the
  seconds and events are read from an untraced second run);
* what messages hold: one ``mesh_aggregate``-shaped iteration on 3x3x3
  (every rank isend/irecvs to all six neighbours, 4 KB twice, then
  64 KB), stepped event by event under ``tracemalloc``: the traced MB
  the run adds at its peak, and the VIA fragments (``ViaPacket``s)
  alive after the event that left the most memory traced (found by a
  first pass, counted by ``gc`` in an identical second one); then the
  peak RSS of a process that computes only the fig4 quick 3-D 1 MB
  point, and that point's value.

It prints instead of asserting, so the same file reads the state of
any commit: to measure a parent, export it (``git archive REV | tar
-x -C DIR``), copy this file over it and run it there.  EXPERIMENTS.md,
"What a channel holds", holds the numbers.
"""

from __future__ import annotations

import gc
import platform
import subprocess
import sys
import time
import tracemalloc

sys.path.insert(0, "src")

from repro.cluster.builder import build_mesh  # noqa: E402
from repro.cluster.process_api import build_engines, build_world  # noqa: E402
from repro.mpi.request import waitall  # noqa: E402


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


def _exchange(comm, torus):
    peers = [rank for _direction, rank in torus.neighbors(comm.rank)]
    yield from comm.barrier()
    for nbytes, rounds in ((4096, 2), (65536, 1)):
        recvs = []
        for _ in range(rounds):
            recvs += [comm.irecv(peer, tag=3, nbytes=nbytes)
                      for peer in peers]
            yield from waitall([comm.isend(peer, tag=3, nbytes=nbytes)
                                for peer in peers])
        yield from waitall(recvs)
        yield from comm.barrier()


def _stepped_exchange(stop_at=None) -> tuple:
    """Step the exchange to its end, or through ``stop_at`` events:
    (events, the event after which the most was traced, the traced
    bytes the run added at its peak, the fragments alive then)."""
    cluster = build_mesh((3, 3, 3))
    comms = build_world(cluster)
    sim = cluster.sim
    for comm in comms:
        sim.spawn(_exchange(comm, cluster.torus))
    gc.collect()
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    most, most_at, events = start, 0, 0
    while sim.queue_length and events != stop_at:
        sim.step()
        events += 1
        traced = tracemalloc.get_traced_memory()[0]
        if traced > most:
            most, most_at = traced, events
    gc.collect()
    alive = sum(1 for obj in gc.get_objects()
                if type(obj).__name__ == "ViaPacket")
    return (events, most_at, tracemalloc.get_traced_memory()[1] - start,
            alive)


#: A process's own peak RSS.  ``ru_maxrss`` will not do: a child
#: started from a large parent reports the parent's size, taken over
#: at ``exec``.
_PEAK_RSS = """
def peak_rss_mb():
    try:
        with open('/proc/self/status') as status:
            for line in status:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
"""


def _fig4_point() -> str:
    """Peak RSS of a process that computes the fig4 quick 3-D 1 MB
    point, and the point."""
    code = _PEAK_RSS + (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.bench.microbench import mpi_aggregate_bandwidth\n"
        "value = mpi_aggregate_bandwidth((3, 3, 3), 1 << 20,"
        " total_bytes=2 << 20)\n"
        "print(f'{peak_rss_mb():.1f} MB peak RSS, {value:.2f} MB/s')\n")
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True).stdout.strip()


def messages() -> None:
    _stepped_exchange()                      # warm imports and caches
    tracemalloc.start()
    try:
        events, most_at, peak, _ = _stepped_exchange()
        alive = _stepped_exchange(stop_at=most_at)[3]
    finally:
        tracemalloc.stop()
    print(f"3x3x3 all-neighbour 4 KB x2 + 64 KB: {alive} fragments alive "
          f"after event {most_at} of {events}, run peak "
          f"+{peak / 2**20:.2f} MB traced")
    print(f"fig4 quick 3-D 1 MB point: {_fig4_point()}")


def main() -> None:
    print(f"python {platform.python_version()}, {platform.machine()}")
    bringup()
    all_pairs()
    messages()


if __name__ == "__main__":
    main()
