"""Reusable micro-benchmark drivers over the raw stacks.

These are the building blocks of the figure experiments: raw M-VIA and
TCP point-to-point latency/bandwidth, per-node aggregated bandwidth,
and MPI-level equivalents.  All return simulated microseconds / MB/s.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.builder import build_mesh
from repro.via.descriptors import RecvDescriptor, SendDescriptor

#: Cap on how many descriptors a raw-VIA benchmark pre-posts per VI.
MAX_PREPOST = 200


# ---------------------------------------------------------------------------
# Raw VIA plumbing.
# ---------------------------------------------------------------------------

def _via_pair(size_hint: int, hops: int = 1, **cluster_kwargs):
    """A connected VI pair ``hops`` apart on a line mesh."""
    cluster = build_mesh((hops + 1,), wrap=False, stack="via",
                         **cluster_kwargs)
    sim = cluster.sim
    d0, d1 = cluster.nodes[0].via, cluster.nodes[hops].via
    t0, t1 = d0.create_protection_tag(), d1.create_protection_tag()
    vi0, vi1 = d0.create_vi(t0), d1.create_vi(t1)
    r0 = d0.register_memory_now(size_hint + 4096, t0)
    r1 = d1.register_memory_now(size_hint + 4096, t1)
    a = sim.spawn(d0.agent.connect_request(vi0, hops, "bench"))
    b = sim.spawn(d1.agent.connect_wait(vi1, "bench"))
    sim.run_until_complete(a)
    sim.run_until_complete(b)
    return cluster, (vi0, r0), (vi1, r1)


def via_latency(nbytes: int = 4, repeats: int = 20, hops: int = 1,
                **cluster_kwargs) -> float:
    """Half round-trip time (us) at ``nbytes``, ``hops`` apart."""
    cluster, (vi0, r0), (vi1, r1) = _via_pair(max(nbytes, 4096), hops,
                                              **cluster_kwargs)
    sim = cluster.sim
    result: Dict[str, float] = {}

    def ponger():
        for _ in range(repeats):
            vi1.post_recv(RecvDescriptor(r1, 0, max(nbytes, 4096)))
            yield from vi1.recv_wait()
            yield from vi1.post_send(SendDescriptor(r1, 0, nbytes))

    def pinger():
        start = sim.now
        for _ in range(repeats):
            vi0.post_recv(RecvDescriptor(r0, 0, max(nbytes, 4096)))
            yield from vi0.post_send(SendDescriptor(r0, 0, nbytes))
            yield from vi0.recv_wait()
        result["rtt2"] = (sim.now - start) / repeats / 2

    sim.spawn(ponger())
    process = sim.spawn(pinger())
    sim.run_until_complete(process)
    return result["rtt2"]


def via_pingpong_bandwidth(nbytes: int, repeats: int = 6,
                           **cluster_kwargs) -> float:
    """Alternating-direction bandwidth (MB/s) at ``nbytes``."""
    cluster, (vi0, r0), (vi1, r1) = _via_pair(nbytes, **cluster_kwargs)
    sim = cluster.sim
    result: Dict[str, float] = {}

    def ponger():
        for _ in range(repeats):
            vi1.post_recv(RecvDescriptor(r1, 0, nbytes))
            yield from vi1.recv_wait()
            yield from vi1.post_send(SendDescriptor(r1, 0, nbytes))
            yield from vi1.send_wait()

    def pinger():
        start = sim.now
        for _ in range(repeats):
            vi0.post_recv(RecvDescriptor(r0, 0, nbytes))
            yield from vi0.post_send(SendDescriptor(r0, 0, nbytes))
            yield from vi0.send_wait()
            yield from vi0.recv_wait()
        # One-direction payload per round trip measured both ways.
        result["bw"] = 2 * repeats * nbytes / (sim.now - start)

    sim.spawn(ponger())
    process = sim.spawn(pinger())
    sim.run_until_complete(process)
    return result["bw"]


def via_simultaneous_bandwidth(nbytes: int, **cluster_kwargs) -> float:
    """Both directions at once: per-direction send bandwidth (MB/s)."""
    cluster, (vi0, r0), (vi1, r1) = _via_pair(nbytes, **cluster_kwargs)
    sim = cluster.sim
    start = sim.now
    finished: List[float] = []

    def pump(vi, region):
        vi.post_recv(RecvDescriptor(region, 0, nbytes))
        yield from vi.post_send(SendDescriptor(region, 0, nbytes))
        yield from vi.send_wait()
        yield from vi.recv_wait()
        finished.append(sim.now)

    processes = [sim.spawn(pump(vi0, r0)), sim.spawn(pump(vi1, r1))]
    for process in processes:
        sim.run_until_complete(process)
    return nbytes / (max(finished) - start)


def via_aggregate_bandwidth(dims: Tuple[int, ...], nbytes: int,
                            total_bytes: int = 6_000_000,
                            **cluster_kwargs) -> float:
    """Per-node aggregated *send* bandwidth (MB/s) on a small torus.

    All of a center node's links run simultaneous bidirectional
    traffic; the reported figure is the summed send bandwidth, as in
    the paper ("sending bandwidth alone not counting receiving data").
    """
    iters = min(max(3, total_bytes // max(nbytes, 1)), MAX_PREPOST)
    cluster = build_mesh(dims, wrap=True, stack="via", **cluster_kwargs)
    sim, torus = cluster.sim, cluster.torus
    center = cluster.nodes[0].via
    tag_c = center.create_protection_tag()
    reg_c = center.register_memory_now(nbytes + 4096, tag_c)
    pairs = []
    for index, (_direction, neighbor) in enumerate(torus.neighbors(0)):
        dev = cluster.nodes[neighbor].via
        tag_n = dev.create_protection_tag()
        reg_n = dev.register_memory_now(nbytes + 4096, tag_n)
        vi_c = center.create_vi(tag_c)
        vi_n = dev.create_vi(tag_n)
        a = sim.spawn(center.agent.connect_request(vi_c, neighbor,
                                                   f"agg{index}"))
        b = sim.spawn(dev.agent.connect_wait(vi_n, f"agg{index}"))
        sim.run_until_complete(a)
        sim.run_until_complete(b)
        for _ in range(iters):
            vi_c.post_recv(RecvDescriptor(reg_c, 0, nbytes))
            vi_n.post_recv(RecvDescriptor(reg_n, 0, nbytes))
        pairs.append((vi_c, vi_n, reg_n))
    start = sim.now
    finished: List[float] = []

    def sender(vi, region, mark: bool):
        for _ in range(iters):
            yield from vi.post_send(SendDescriptor(region, 0, nbytes))
            yield from vi.send_wait()
        if mark:
            finished.append(sim.now)

    def reaper(vi):
        for _ in range(iters):
            yield from vi.recv_wait()

    watch = []
    for vi_c, vi_n, reg_n in pairs:
        watch.append(sim.spawn(sender(vi_c, reg_c, True)))
        sim.spawn(sender(vi_n, reg_n, False))
        sim.spawn(reaper(vi_c))
        sim.spawn(reaper(vi_n))
    for process in watch:
        sim.run_until_complete(process)
    return len(pairs) * nbytes * iters / (max(finished) - start)


# ---------------------------------------------------------------------------
# TCP equivalents.
# ---------------------------------------------------------------------------

def _tcp_pair():
    cluster = build_mesh((2,), wrap=False, stack="tcp")
    return cluster, cluster.nodes[0].tcp, cluster.nodes[1].tcp


def tcp_latency(nbytes: int = 4, repeats: int = 20) -> float:
    cluster, s0, s1 = _tcp_pair()
    sim = cluster.sim
    result: Dict[str, float] = {}

    def server():
        sock = yield from s1.listen(7)
        for _ in range(repeats):
            yield from sock.recv(nbytes)
            yield from sock.send(nbytes)

    def client():
        sock = yield from s0.connect(1, 7)
        start = sim.now
        for _ in range(repeats):
            yield from sock.send(nbytes)
            yield from sock.recv(nbytes)
        result["rtt2"] = (sim.now - start) / repeats / 2

    sim.spawn(server())
    process = sim.spawn(client())
    sim.run_until_complete(process)
    return result["rtt2"]


def tcp_pingpong_bandwidth(nbytes: int, repeats: int = 6) -> float:
    cluster, s0, s1 = _tcp_pair()
    sim = cluster.sim
    result: Dict[str, float] = {}

    def server():
        sock = yield from s1.listen(7)
        for _ in range(repeats):
            yield from sock.recv(nbytes)
            yield from sock.send(nbytes)

    def client():
        sock = yield from s0.connect(1, 7)
        start = sim.now
        for _ in range(repeats):
            yield from sock.send(nbytes)
            yield from sock.recv(nbytes)
        result["bw"] = 2 * repeats * nbytes / (sim.now - start)

    sim.spawn(server())
    process = sim.spawn(client())
    sim.run_until_complete(process)
    return result["bw"]


def tcp_simultaneous_bandwidth(nbytes: int) -> float:
    cluster, s0, s1 = _tcp_pair()
    sim = cluster.sim
    times: Dict[str, float] = {}

    def node0():
        sock = yield from s0.connect(1, 7)
        times["start"] = sim.now
        yield from sock.send(nbytes)
        yield from sock.recv(nbytes)
        times["end0"] = sim.now

    def node1():
        sock = yield from s1.listen(7)
        yield from sock.send(nbytes)
        yield from sock.recv(nbytes)
        times["end1"] = sim.now

    a, b = sim.spawn(node0()), sim.spawn(node1())
    sim.run_until_complete(a)
    sim.run_until_complete(b)
    return nbytes / (max(times["end0"], times["end1"]) - times["start"])


def tcp_aggregate_bandwidth(dims: Tuple[int, ...], nbytes: int,
                            total_bytes: int = 4_000_000) -> float:
    """Per-node aggregated TCP send bandwidth on a small torus."""
    iters = min(max(2, total_bytes // max(nbytes, 1)), 64)
    cluster = build_mesh(dims, wrap=True, stack="tcp")
    sim, torus = cluster.sim, cluster.torus
    center = cluster.nodes[0].tcp
    sockets = []
    for index, (_direction, neighbor) in enumerate(torus.neighbors(0)):
        dev = cluster.nodes[neighbor].tcp
        holder: Dict[str, object] = {}

        def accept(dev=dev, index=index, holder=holder):
            holder["peer"] = yield from dev.listen(100 + index)

        def connect(neighbor=neighbor, index=index, holder=holder):
            holder["mine"] = yield from center.connect(neighbor,
                                                       100 + index)

        a, b = sim.spawn(accept()), sim.spawn(connect())
        sim.run_until_complete(a)
        sim.run_until_complete(b)
        sockets.append(holder)
    start = sim.now
    finished: List[float] = []

    def pump(sock, mark: bool):
        for _ in range(iters):
            yield from sock.send(nbytes)
        if mark:
            finished.append(sim.now)

    def drain(sock):
        for _ in range(iters):
            yield from sock.recv(nbytes)

    watch = []
    for holder in sockets:
        watch.append(sim.spawn(pump(holder["mine"], True)))
        sim.spawn(pump(holder["peer"], False))
        sim.spawn(drain(holder["mine"]))
        sim.spawn(drain(holder["peer"]))
    for process in watch:
        sim.run_until_complete(process)
    return len(sockets) * nbytes * iters / (max(finished) - start)


# ---------------------------------------------------------------------------
# MPI-level drivers (Figure 4).  They import the MPI layer when called,
# so a raw VIA or TCP point never loads the messaging core.
# ---------------------------------------------------------------------------

def mpi_latency(nbytes: int = 4, repeats: int = 10) -> float:
    from repro.cluster.process_api import run_mpi

    cluster = build_mesh((2,), wrap=False)
    result: Dict[str, float] = {}

    def program(comm):
        sim = comm.engine.sim
        if comm.rank == 0:
            start = sim.now
            for _ in range(repeats):
                yield from comm.send(1, tag=1, nbytes=nbytes)
                yield from comm.recv(source=1, tag=2,
                                     nbytes=max(nbytes, 4096))
            result["rtt2"] = (sim.now - start) / repeats / 2
        else:
            for _ in range(repeats):
                yield from comm.recv(source=0, tag=1,
                                     nbytes=max(nbytes, 4096))
                yield from comm.send(0, tag=2, nbytes=nbytes)

    run_mpi(cluster, program)
    return result["rtt2"]


def mpi_aggregate_bandwidth(dims: Tuple[int, ...], nbytes: int,
                            total_bytes: int = 6_000_000) -> float:
    """Aggregated send bandwidth through the MPI/QMP layer.

    Every node exchanges with all its neighbors simultaneously; the
    center node's summed send rate is reported.
    """
    from repro.cluster.process_api import run_mpi
    from repro.mpi.request import waitall

    iters = max(2, min(total_bytes // max(nbytes, 1), 96))
    cluster = build_mesh(dims, wrap=True)
    torus = cluster.torus
    result: Dict[str, float] = {}

    def program(comm):
        sim = comm.engine.sim
        neighbors = [n for _d, n in torus.neighbors(comm.rank)]
        yield from comm.barrier()
        start = sim.now
        recvs = []
        sends = []
        for _ in range(iters):
            for peer in neighbors:
                recvs.append(comm.irecv(peer, tag=3, nbytes=nbytes))
            send_batch = [
                comm.isend(peer, tag=3, nbytes=nbytes)
                for peer in neighbors
            ]
            sends.extend(send_batch)
            yield from waitall(send_batch)
        if comm.rank == 0:
            result["send_done"] = sim.now - start
        yield from waitall(recvs)

    run_mpi(cluster, program)
    nlinks = len(cluster.torus.neighbors(0))
    return nlinks * nbytes * iters / result["send_done"]
