"""The five simulator workloads (the service one is in ``service.py``).

Each drives the system through its public API only — ``build_mesh``,
``build_world``/``run_mpi``, the ``repro.mpi`` communicator ops, raw
``repro.via`` VIs, ``repro.tcpip`` sockets, ``run_sharded`` and
``repro.hw.faults`` — and never imports ``repro.bench``, so that
package can be refactored without touching the ruler.

A workload is an object with::

    inputs(seed, smoke) -> dict      the seed-generated program
    setup(inputs, span) -> ctx       build clusters, worlds, connections
    run(ctx) -> out                  the timed program
    verify(ctx, out) -> Outcome      correctness gate + exact counts
    extras(inputs, smoke) -> dict    per-layer metrics only it can take

``--seed`` picks op order, collective roots and the fault stream; the
program under test sees only the generated inputs.  Program sizes are
fixed so one iteration is about a second on the 2-core reference host.
"""

from __future__ import annotations

import cProfile
import hashlib
import os
import random
import shutil
import statistics
import tempfile
import time
from collections import Counter
from typing import Dict, List, Tuple

from repro import fastpath
from repro.ckpt import CheckpointStore
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.hw import faults
from repro.mpi.request import waitall
from repro.pdes import CheckpointPolicy, ShardRuntime, run_sharded
from repro.via.descriptors import RecvDescriptor, SendDescriptor

from ledger.harness import DEFAULT_OUT, Outcome

#: Paper anchors and the tolerances ``tests/test_calibration.py`` holds
#: the model to: (target, absolute tolerance).
ANCHORS = {
    "via_rtt2_us": (18.5, 0.5),
    "hop_us": (12.5, 0.5),
    "simul_mb_per_s": (110.0, 4.0),
    "mpi_rtt2_us": (18.5, 1.5),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _run_all(sim, generators) -> list:
    processes = [sim.spawn(generator) for generator in generators]
    return [sim.run_until_complete(process) for process in processes]


# -- exact counts off the public counters -----------------------------------

_PORT_KEYS = ("tx_frames", "rx_frames", "tx_bytes", "rx_bytes",
              "train_frames", "train_fallbacks", "interrupts", "rx_stalls")
_AGENT_KEYS = ("forwarded", "retransmits", "timeouts", "acks_sent",
               "dup_frames")
_ENGINE_KEYS = ("eager_sent", "rma_sent", "unexpected")


def snapshot(clusters) -> Counter:
    """Mesh-wide sums of the hw / via / core / topology counters."""
    totals: Counter = Counter()
    for cluster in clusters:
        for node in cluster.nodes:
            for port in node.ports.values():
                for key in _PORT_KEYS:
                    totals[key] += port.stats[key]
            if node.via is None:
                continue
            for key in _AGENT_KEYS:
                totals[key] += node.via.agent.stats[key]
            engine = getattr(node.via, "engine", None)
            if engine is not None:
                for key in _ENGINE_KEYS:
                    totals[key] += engine.stats[key]
        for link in cluster.links:
            totals["dropped"] += sum(link.stats["dropped"])
        totals["route_hits"] += cluster.torus.cache_stats["hits"]
        totals["route_misses"] += cluster.torus.cache_stats["misses"]
    return totals


def layer_counts(delta: Counter) -> Dict[str, float]:
    """Run-phase counter deltas under their per-layer metric names."""
    lookups = delta["route_hits"] + delta["route_misses"]
    return {
        "hw.tx_frames": delta["tx_frames"],
        "hw.train_frames": delta["train_frames"],
        "hw.train_frame_share": (
            delta["train_frames"] / delta["tx_frames"]
            if delta["tx_frames"] else 0.0),
        "hw.train_fallbacks": delta["train_fallbacks"],
        "hw.interrupts": delta["interrupts"],
        "hw.rx_stalls": delta["rx_stalls"],
        "hw.frames_dropped": delta["dropped"],
        "via.frames_forwarded": delta["forwarded"],
        "via.retransmits": delta["retransmits"],
        "via.timeouts": delta["timeouts"],
        "via.acks_sent": delta["acks_sent"],
        "via.dup_frames": delta["dup_frames"],
        "core.eager_sent": delta["eager_sent"],
        "core.rma_sent": delta["rma_sent"],
        "core.unexpected": delta["unexpected"],
        "topology.route_cache_hit_ratio": (
            delta["route_hits"] / lookups if lookups else 0.0),
    }


class _Workload:
    def extras(self, inputs: dict, smoke: bool) -> dict:
        """Per-layer metrics only this workload can take (traced runs)."""
        return {}


class _Checks:
    """Attempted/failed bookkeeping for one iteration's gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {attempted} {what}")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


def _mesh_gate(checks: _Checks, clusters, before: Counter) -> Counter:
    """Drain the meshes, then: no request left pending, and every frame
    put on a wire was received or dropped by the fault model."""
    for cluster in clusters:
        cluster.sim.run()  # in-flight acks/credits land; untimed
    delta = snapshot(clusters)
    delta.subtract(before)
    pending = sum(
        len(node.via.engine.pending_requests())
        for cluster in clusters for node in cluster.nodes
        if node.via is not None and getattr(node.via, "engine", None)
    )
    checks.check(pending == 0, f"{pending} requests still pending")
    checks.check(
        delta["tx_frames"] == delta["rx_frames"] + delta["dropped"],
        f"frames sent {delta['tx_frames']} != received "
        f"{delta['rx_frames']} + dropped {delta['dropped']}")
    return delta


# -- pt2pt_sweep -----------------------------------------------------------

class _ViaEnd:
    """One side of a connected raw VI pair."""

    def __init__(self, vi, region) -> None:
        self.vi, self.region = vi, region
        self.recvs = self.sends = 0

    def post_recv(self, nbytes: int) -> None:
        self.vi.post_recv(RecvDescriptor(self.region, 0,
                                         max(nbytes, 4096)))
        self.recvs += 1

    def start_send(self, nbytes: int):
        yield from self.vi.post_send(SendDescriptor(self.region, 0, nbytes))
        self.sends += 1

    def finish_sends(self):
        while self.sends:
            yield from self.vi.send_wait()
            self.sends -= 1

    def finish_recvs(self):
        while self.recvs:
            yield from self.vi.recv_wait()
            self.recvs -= 1


class _TcpEnd:
    """One side of an established TCP connection."""

    def __init__(self, sock) -> None:
        self.sock = sock
        self.recvs: List[int] = []

    def post_recv(self, nbytes: int) -> None:
        self.recvs.append(nbytes)

    def start_send(self, nbytes: int):
        yield from self.sock.send(nbytes)

    def finish_sends(self):
        return
        yield

    def finish_recvs(self):
        while self.recvs:
            yield from self.sock.recv(self.recvs.pop(0))


class _MpiEnd:
    """One rank of a 2-rank world, talking to the other."""

    def __init__(self, comm) -> None:
        self.comm, self.peer = comm, 1 - comm.rank
        self.recvs: list = []
        self.sends: list = []

    def post_recv(self, nbytes: int) -> None:
        self.recvs.append(self.comm.irecv(self.peer, tag=1,
                                          nbytes=max(nbytes, 4096)))

    def start_send(self, nbytes: int):
        self.sends.append(self.comm.isend(self.peer, tag=1, nbytes=nbytes))
        return
        yield

    def finish_sends(self):
        sends, self.sends = self.sends, []
        yield from waitall(sends)

    def finish_recvs(self):
        recvs, self.recvs = self.recvs, []
        yield from waitall(recvs)


def _pingpong(sim, a, b, nbytes: int, reps: int) -> float:
    """Half round-trip time in simulated us."""
    def ponger():
        for _ in range(reps):
            b.post_recv(nbytes)
            yield from b.finish_recvs()
            yield from b.start_send(nbytes)
        yield from b.finish_sends()

    def pinger():
        start = sim.now
        for _ in range(reps):
            a.post_recv(nbytes)
            yield from a.start_send(nbytes)
            yield from a.finish_recvs()
        rtt2 = (sim.now - start) / reps / 2
        yield from a.finish_sends()
        return rtt2

    return _run_all(sim, [ponger(), pinger()])[1]


def _simultaneous(sim, a, b, nbytes: int, _count: int) -> float:
    """Both directions at once: per-direction MB/s (= bytes/us)."""
    start = sim.now

    def pump(end):
        end.post_recv(nbytes)
        yield from end.start_send(nbytes)
        yield from end.finish_sends()
        yield from end.finish_recvs()
        return sim.now

    return nbytes / (max(_run_all(sim, [pump(a), pump(b)])) - start)


def _stream(sim, a, b, nbytes: int, count: int) -> float:
    """``count`` back-to-back messages one way: MB/s at the receiver."""
    start = sim.now
    for _ in range(count):
        b.post_recv(nbytes)

    def sender():
        for _ in range(count):
            yield from a.start_send(nbytes)
            yield from a.finish_sends()

    def receiver():
        yield from b.finish_recvs()
        return sim.now

    done = _run_all(sim, [sender(), receiver()])[1]
    return count * nbytes / (done - start)


_OPS = {"pingpong": _pingpong, "simultaneous": _simultaneous,
        "stream": _stream}


class Pt2ptSweep(_Workload):
    name = "pt2pt_sweep"
    BULK = (65536, 1 << 20)

    def inputs(self, seed: int, smoke: bool) -> dict:
        reps, streams = (2, {65536: 2, 1 << 20: 1}) if smoke else (
            12, {65536: 6, 1 << 20: 1})
        ops = []
        for stack in ("via", "tcp", "mpi"):
            for nbytes in (4, 1024, 16384):
                ops.append((stack, "pingpong", nbytes, reps))
            for nbytes in self.BULK:
                ops.append((stack, "simultaneous", nbytes, 1))
                ops.append((stack, "stream", nbytes, streams[nbytes]))
        ops.append(("via3", "pingpong", 4, reps))
        random.Random(seed).shuffle(ops)
        return {"ops": ops}

    def setup(self, inputs: dict, span) -> dict:
        with span("build_mesh"):
            meshes = {
                "via": build_mesh((2,), wrap=False, stack="via"),
                "via3": build_mesh((4,), wrap=False, stack="via"),
                "tcp": build_mesh((2,), wrap=False, stack="tcp"),
                "mpi": build_mesh((2,), wrap=False),
            }
        with span("build_world"):
            ends = {
                "via": self._via_pair(meshes["via"], 1),
                "via3": self._via_pair(meshes["via3"], 3),
                "tcp": self._tcp_pair(meshes["tcp"]),
                "mpi": [_MpiEnd(comm)
                        for comm in build_world(meshes["mpi"])],
            }
        clusters = list(meshes.values())
        return {"ops": inputs["ops"], "meshes": meshes, "ends": ends,
                "clusters": clusters, "before": snapshot(clusters)}

    @staticmethod
    def _via_pair(cluster, far: int):
        sim = cluster.sim
        size = Pt2ptSweep.BULK[-1] + 4096
        ends, devices = [], (cluster.nodes[0].via, cluster.nodes[far].via)
        for device in devices:
            tag = device.create_protection_tag()
            ends.append(_ViaEnd(device.create_vi(tag),
                                device.register_memory_now(size, tag)))
        _run_all(sim, [
            devices[0].agent.connect_request(ends[0].vi, far, "ledger"),
            devices[1].agent.connect_wait(ends[1].vi, "ledger"),
        ])
        return ends

    @staticmethod
    def _tcp_pair(cluster):
        stacks = cluster.nodes[0].tcp, cluster.nodes[1].tcp
        socks = _run_all(cluster.sim, [stacks[0].connect(1, 7),
                                       stacks[1].listen(7)])
        return [_TcpEnd(sock) for sock in socks]

    def run(self, ctx: dict) -> list:
        values = []
        for stack, op, nbytes, count in ctx["ops"]:
            a, b = ctx["ends"][stack]
            sim = ctx["meshes"][stack].sim
            values.append(_OPS[op](sim, a, b, nbytes, count))
        return values

    def verify(self, ctx: dict, values: list) -> Outcome:
        checks = _Checks()
        table = {tuple(op[:3]): value
                 for op, value in zip(ctx["ops"], values)}
        msgs = sum({"pingpong": 2 * count, "simultaneous": 2,
                    "stream": count}[op]
                   for _stack, op, _nbytes, count in ctx["ops"])
        checks.ops(msgs, 0, "messages")
        sim_time = sum(cluster.sim.now for cluster in ctx["clusters"])
        delta = _mesh_gate(checks, ctx["clusters"], ctx["before"])
        tcp = [end.sock.stats for end in ctx["ends"]["tcp"]]
        checks.check(
            tcp[0]["sent_bytes"] == tcp[1]["recv_bytes"]
            and tcp[1]["sent_bytes"] == tcp[0]["recv_bytes"],
            "tcp bytes sent != bytes received")
        via = table[("via", "pingpong", 4)]
        anchors = {
            "via_rtt2_us": via,
            "hop_us": (table[("via3", "pingpong", 4)] - via) / 2,
            "simul_mb_per_s": table[("via", "simultaneous", 1 << 20)],
            "mpi_rtt2_us": table[("mpi", "pingpong", 4)],
        }
        errors = []
        for name, value in anchors.items():
            target, tolerance = ANCHORS[name]
            checks.check(abs(value - target) <= tolerance,
                         f"anchor {name}={value:.3f} outside "
                         f"{target}+-{tolerance}")
            errors.append(abs(value - target) / target * 100.0)
        counts = layer_counts(delta)
        counts["calib.err_pct"] = max(errors)
        counts.update({f"calib.{name}": value
                       for name, value in anchors.items()})
        return Outcome(checks.attempted, checks.failed, msgs,
                       _digest(sorted(table.items())), sim_time, counts,
                       checks.notes)


# -- mesh_aggregate / lossy_mesh: the all-neighbour exchange ----------------

def _exchange(comm, torus, phases: List[Tuple[int, int]]):
    """Every rank isend/irecvs to all its neighbours at once."""
    sim = comm.engine.sim
    peers = [rank for _direction, rank in torus.neighbors(comm.rank)
             if rank != comm.rank]
    sent = received = 0
    marks = []
    yield from comm.barrier()
    for nbytes, iters in phases:
        recvs = []
        for _ in range(iters):
            recvs += [comm.irecv(peer, tag=3, nbytes=nbytes)
                      for peer in peers]
            sends = [comm.isend(peer, tag=3, nbytes=nbytes)
                     for peer in peers]
            yield from waitall(sends)
            sent += nbytes * len(sends)
        yield from waitall(recvs)
        received += sum(request.received_bytes for request in recvs)
        yield from comm.barrier()
        marks.append(sim.now)
    return sent, received, len(peers), marks


class MeshExchange(_Workload):
    """Shared shape of ``mesh_aggregate`` and ``lossy_mesh``."""

    def __init__(self, name: str, dims, phases, smoke_phases,
                 loss_rate: float = 0.0) -> None:
        self.name = name
        self.dims = dims
        self.phases, self.smoke_phases = phases, smoke_phases
        self.loss_rate = loss_rate

    def inputs(self, seed: int, smoke: bool) -> dict:
        phases = list(self.smoke_phases if smoke else self.phases)
        random.Random(seed).shuffle(phases)
        return {"dims": self.dims, "phases": phases, "fault_seed": seed,
                "loss_rate": self.loss_rate}

    def setup(self, inputs: dict, span) -> dict:
        ambient = faults.FaultParams(
            seed=inputs["fault_seed"],
            loss_rate=self.loss_rate) if self.loss_rate else None
        with faults.inject(ambient):  # links read it when wired
            with span("build_mesh"):
                cluster = build_mesh(inputs["dims"], wrap=True)
            with span("build_world"):
                comms = build_world(cluster)
        return {"cluster": cluster, "comms": comms,
                "phases": inputs["phases"], "before": snapshot([cluster])}

    def run(self, ctx: dict) -> list:
        cluster = ctx["cluster"]
        return run_mpi(cluster, _exchange,
                       args=(cluster.torus, ctx["phases"]),
                       comms=ctx["comms"])

    def verify(self, ctx: dict, per_rank: list) -> Outcome:
        checks = _Checks()
        cluster = ctx["cluster"]
        sim_time = cluster.sim.now
        per_peer = sum(iters for _nbytes, iters in ctx["phases"])
        msgs = sum(peers * per_peer for _s, _r, peers, _m in per_rank)
        checks.ops(msgs, 0, "messages")
        sent = sum(row[0] for row in per_rank)
        received = sum(row[1] for row in per_rank)
        checks.check(sent == received,
                     f"bytes sent {sent} != bytes received {received}")
        delta = _mesh_gate(checks, [cluster], ctx["before"])
        faults.clear_registry()  # injectors register process-wide
        counts = layer_counts(delta)
        counts["collectives.ops"] = len(ctx["phases"]) + 1
        return Outcome(checks.attempted, checks.failed, msgs,
                       _digest(per_rank), sim_time, counts, checks.notes)


# -- torus_collectives -----------------------------------------------------

def _collectives(comm, root: int, sizes: List[int], token: int):
    results = []
    yield from comm.barrier()
    for nbytes in sizes:
        value = yield from comm.bcast(
            root=root, nbytes=nbytes,
            data=token if comm.rank == root else None)
        total = yield from comm.allreduce(nbytes=nbytes,
                                          data=float(comm.rank + 1))
        results += [value, float(total)]
    for algorithm in ("opt", "sdf"):
        piece = yield from comm.scatter(
            root=root, nbytes=64, algorithm=algorithm,
            data=list(range(comm.size)) if comm.rank == root else None)
        results.append(piece)
    yield from comm.barrier()
    return results


class TorusCollectives(_Workload):
    name = "torus_collectives"

    def inputs(self, seed: int, smoke: bool) -> dict:
        dims = (2, 2, 4) if smoke else (4, 4, 8)
        rng = random.Random(seed)
        size = dims[0] * dims[1] * dims[2]
        sizes = [4, 4096]
        rng.shuffle(sizes)
        return {"dims": dims, "root": rng.randrange(size), "sizes": sizes,
                "token": rng.randrange(1, 1 << 30)}

    def setup(self, inputs: dict, span) -> dict:
        with span("build_mesh"):
            cluster = build_mesh(inputs["dims"], wrap=True)
        with span("build_world"):
            comms = build_world(cluster)
        return {"cluster": cluster, "comms": comms, "inputs": inputs,
                "before": snapshot([cluster])}

    def run(self, ctx: dict) -> list:
        inputs = ctx["inputs"]
        return run_mpi(ctx["cluster"], _collectives,
                       args=(inputs["root"], inputs["sizes"],
                             inputs["token"]),
                       comms=ctx["comms"])

    def verify(self, ctx: dict, per_rank: list) -> Outcome:
        checks = _Checks()
        cluster, inputs = ctx["cluster"], ctx["inputs"]
        sim_time = cluster.sim.now
        size = cluster.size
        total = size * (size + 1) / 2.0
        wrong = 0
        for rank, results in enumerate(per_rank):
            expected = [inputs["token"], total] * len(inputs["sizes"])
            expected += [rank, rank]
            wrong += sum(1 for got, want in zip(results, expected)
                         if got != want)
        ops = 2 * len(inputs["sizes"]) + 4  # + 2 scatters, 2 barriers
        checks.ops(ops * size, wrong, "collective results wrong")
        delta = _mesh_gate(checks, [cluster], ctx["before"])
        counts = layer_counts(delta)
        counts["collectives.ops"] = ops
        return Outcome(checks.attempted, checks.failed, ops,
                       _digest(per_rank), sim_time, counts, checks.notes)


# -- pdes_shards -----------------------------------------------------------

class PdesShards(_Workload):
    """``run_sharded`` on two in-process shards.

    Shards stay in-process: two subprocess shards plus a coordinator
    on two shared cores would measure the OS scheduler.  ``setup`` is
    the shard build on its own (two ``ShardRuntime``s, discarded);
    ``run_sharded`` builds its own again inside ``run``.
    """

    name = "pdes_shards"
    NSHARDS = 2

    def __init__(self) -> None:
        self._reference = None  # the 1-shard result, computed once

    def inputs(self, seed: int, smoke: bool) -> dict:
        # The built-in aggregate program is symmetric and takes no
        # seed, so every seed runs the same program.
        return {"dims": (2, 2, 4) if smoke else (4, 4, 4),
                "kwargs": {"nbytes": 4096, "iters": 2}}

    def _sharded(self, inputs: dict, nshards: int, checkpoint=None):
        return run_sharded(inputs["dims"], workload="aggregate",
                           nshards=nshards, processes=False,
                           kwargs=inputs["kwargs"], checkpoint=checkpoint)

    def setup(self, inputs: dict, span) -> dict:
        with span("build_mesh"):
            for shard_id in range(self.NSHARDS):
                ShardRuntime({
                    "dims": list(inputs["dims"]), "wrap": True,
                    "nshards": self.NSHARDS, "shard_id": shard_id,
                    "workload": "aggregate", "kwargs": inputs["kwargs"],
                    "fast": fastpath.enabled(), "observe": False,
                    "metrics_interval": 50.0,
                })
        return {"inputs": inputs}

    def run(self, ctx: dict):
        return self._sharded(ctx["inputs"], self.NSHARDS)

    def verify(self, ctx: dict, result) -> Outcome:
        checks = _Checks()
        inputs = ctx["inputs"]
        if self._reference is None:
            self._reference = self._sharded(inputs, 1)
        reference = self._reference
        ranks = len(result.per_rank)
        peers = 2 * len(inputs["dims"])
        msgs = ranks * peers * inputs["kwargs"]["iters"]
        checks.ops(msgs, 0, "messages")
        checks.check(repr(result.table) == repr(reference.table),
                     "2-shard table differs from the 1-shard table")
        checks.check(result.per_rank == reference.per_rank,
                     "2-shard per-rank results differ from 1-shard")
        counts = {
            "pdes.windows": result.windows,
            "pdes.extra_events": (result.events_processed
                                  - reference.events_processed),
            "collectives.ops": 2,
        }
        for key in ("retransmits", "timeouts", "acks_sent", "dup_frames"):
            counts[f"via.{key}"] = result.reliability.get(key, 0)
        counts["hw.frames_dropped"] = result.reliability.get(
            "frames_dropped", 0)
        return Outcome(checks.attempted, checks.failed, msgs,
                       _digest(result.table), result.now, counts,
                       checks.notes)

    def extras(self, inputs: dict, smoke: bool) -> dict:
        """Barrier cost as the median over back-to-back 1-/2-shard
        pairs (pairing cancels host drift), and one profiled pass that
        checkpoints every 256 windows."""
        pairs = []
        for _ in range(1 if smoke else 3):
            walls = []
            for nshards in (1, self.NSHARDS):
                start = time.perf_counter()
                result = self._sharded(inputs, nshards)
                walls.append(time.perf_counter() - start)
            pairs.append(walls)
        windows = result.windows
        os.makedirs(DEFAULT_OUT, exist_ok=True)
        root = tempfile.mkdtemp(prefix="ckpt-", dir=DEFAULT_OUT)
        profiler = cProfile.Profile()
        try:
            policy = CheckpointPolicy(every=256,
                                      store=CheckpointStore(root))
            profiler.enable()
            try:
                checkpointed = self._sharded(inputs, self.NSHARDS, policy)
            finally:
                profiler.disable()
            written = sum(
                os.path.getsize(os.path.join(folder, name))
                for folder, _dirs, names in os.walk(root)
                for name in names)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        profiler.create_stats()
        ckpt_self = sum(
            row[2] for (filename, _l, _f), row in profiler.stats.items()
            if "/src/repro/ckpt/" in filename.replace(os.sep, "/"))
        return {
            "pdes.shard_ratio": statistics.median(
                one / two for one, two in pairs),
            "pdes.coord_ms_per_window": statistics.median(
                two - one for one, two in pairs) / windows * 1e3,
            "ckpt.self_s": ckpt_self,
            "ckpt.windows_written": checkpointed.checkpoints,
            "ckpt.bytes_written": written,
        }


def simulator_workloads() -> dict:
    return {w.name: w for w in (
        Pt2ptSweep(),
        MeshExchange("mesh_aggregate", (3, 3, 3),
                     phases=[(4096, 2), (65536, 1)],
                     smoke_phases=[(4096, 1), (16384, 1)]),
        TorusCollectives(),
        MeshExchange("lossy_mesh", (3, 3),
                     phases=[(8192, 4), (65536, 1)],
                     smoke_phases=[(8192, 1), (16384, 1)],
                     loss_rate=0.01),
        PdesShards(),
    )}
