"""Node liveness: whether node faults are armed, and which peers this
node knows to be dead.

One :class:`Liveness` per node exists exactly when the cluster is built
with ``node_faults`` (``ViaDevice.liveness``; None otherwise, so a
fault-free run pays one ``is None`` test).  The kernel agent, the
offload collective engine and the messaging engine ask it and nothing
else.  Its counters live in the kernel agent's ``stats``.
"""

from __future__ import annotations

from repro.errors import ViaError
from repro.via.packet import PacketKind, ViaPacket
from repro.via.vi import ViState


class Liveness:
    """The keepalive failure detector, the local dead-set, death
    verdicts and their teardown, and the inbound-frame check.

    Each node heartbeats its distinct torus neighbors every
    ``ViaParams.fd_interval`` us; ``fd_timeout`` us of silence from a
    live neighbor is a death verdict.  Verdicts (from silence or from a
    spent retry budget, :meth:`suspect`) update the mesh-wide alive-set
    on the cluster, tear down local endpoints, and gossip
    ``DEADNOTICE`` frames along :func:`~repro.topology.routing.alive_path`
    routes so non-neighbors learn of the death with realistic
    propagation delay.
    """

    def __init__(self, device, cluster) -> None:
        self.device = device
        self.agent = device.agent
        self.stats = device.agent.stats
        self.cluster = cluster
        #: Mesh-wide *published* alive-set entry (``rank`` -> bool).
        self.node_alive = cluster.node_alive
        self.sim = device.sim
        #: World ranks this node has already processed a death for:
        #: local knowledge only, fed by silence, spent retry budgets
        #: and gossip (keeps gossip and teardown idempotent).
        self.dead: set = set()
        #: This node's own crash has been torn down.
        self.crashed = False
        self.interval = device.params.fd_interval
        self.timeout = device.params.fd_timeout
        rank = device.rank
        #: The neighbor at the far end of each port: any frame that
        #: arrives on a port is heard from it, so a keepalive queued
        #: behind a burst on the same link is not needed as proof.
        self.peer_on_port = {
            device.ports[direction.port]: neighbor
            for direction, neighbor in cluster.torus.neighbors(rank)
            if neighbor != rank
        }
        self.neighbor_ranks = sorted(set(self.peer_on_port.values()))
        self.last_heard = {n: 0.0 for n in self.neighbor_ranks}
        self.sim.spawn(self._loop(), name=f"fd[{rank}]")

    # -- frames --------------------------------------------------------

    def heard_on(self, port) -> None:
        """A frame arrived on ``port``: its far end is alive."""
        peer = self.peer_on_port.get(port)
        if peer is not None:
            self.last_heard[peer] = self.sim.now

    def inbound_alive(self, packet: ViaPacket) -> bool:
        """May this frame be processed, or is an endpoint torn down?

        False when this node is out of the published alive-set
        (fail-stop: the NIC goes silent with it) or when the frame
        targets a local VI already moved to ERROR by a death notice.
        """
        device = self.device
        if not self.node_alive(device.rank):
            return False
        if packet.dst_node == device.rank and packet.kind in (
                PacketKind.DATA, PacketKind.RMA_WRITE):
            vi = device.vis.get(packet.dst_vi)
            if vi is not None and vi.state is ViState.ERROR:
                return False
        return True

    def receive(self, packet: ViaPacket) -> None:
        """A KEEPALIVE or DEADNOTICE frame addressed to this node."""
        if packet.kind is PacketKind.KEEPALIVE:
            self.stats["keepalives_received"] += 1
            if packet.src_node in self.last_heard:
                self.last_heard[packet.src_node] = self.sim.now
        else:
            self.stats["dead_notices_received"] += 1
            dead_rank, reason = packet.payload
            self.on_peer_dead(dead_rank, f"notice: {reason}")

    # -- verdicts and teardown -----------------------------------------

    def suspect(self, rank: int, reason: str) -> None:
        """Death verdict on ``rank``: from silence, or from a whole
        retry budget burned on it (a reliable VI, a CONNECT, an offload
        collective peer)."""
        device = self.device
        if rank == device.rank or rank in self.dead:
            return
        if not self.node_alive(device.rank):
            return  # a crashed node renders no verdicts
        self.cluster.declare_dead(rank, by=device.rank, reason=reason)
        self.on_peer_dead(rank, f"declared dead ({reason})")
        # Gossip to every other live rank along alive paths; peers cut
        # off by the same failure are unreachable and dropped.
        for peer in self.cluster.alive_ranks():
            if peer == device.rank or peer == rank:
                continue
            self.stats["dead_notices_sent"] += 1
            self.sim.spawn(
                self.agent._send_control_safe(
                    peer, PacketKind.DEADNOTICE, payload=(rank, reason),
                ),
                name=f"gossip[{device.rank}->{peer}]",
            )

    def on_peer_dead(self, dead_rank: int, reason: str) -> None:
        """Local teardown for a remote node's death (idempotent).

        Every VI connected to the dead node moves to ERROR: unACKed
        sends and pre-posted receive buffers drain through the normal
        completion surfaces with ``DescriptorStatus.ERROR`` so blocked
        waits return, then the offload collective engine and the
        messaging engine get their turn.
        """
        device = self.device
        if dead_rank in self.dead or dead_rank == device.rank:
            return
        self.dead.add(dead_rank)
        self.stats["peers_declared_dead"] += 1
        for vi in list(device.vis.values()):
            if vi.peer is not None and vi.peer[0] == dead_rank:
                self.agent._fail_vi(vi, ViaError(
                    f"{vi!r}: peer node {dead_rank} {reason}"
                ))
        self._fan_out(dead_rank, f"node {dead_rank} {reason}")

    def on_local_crash(self, reason: str = "node crashed") -> None:
        """Fail-stop teardown of this node's own endpoints.

        Run at the crash instant so the victim's pending operations
        surface errors at the victim too ("raises at every affected
        rank") instead of silently freezing.
        """
        self.crashed = True
        device = self.device
        agent = self.agent
        for vi in list(device.vis.values()):
            agent._fail_vi(vi, ViaError(f"{vi!r}: local {reason}"))
        for vi_id in list(agent._connectors):
            vi = device.vis.get(vi_id)
            if vi is not None and vi.error is None:
                vi.error = ViaError(f"{vi!r}: local {reason}")
            agent._end_connect(vi_id, None)
        self._fan_out(device.rank, f"local {reason}")

    def _fan_out(self, dead_rank: int, why: str) -> None:
        device = self.device
        if device.collective is not None:
            device.collective.abort(why)
        if device.engine is not None:
            device.engine.fail_doomed(dead_rank)

    # -- keepalives ----------------------------------------------------

    def _loop(self):
        sim = self.sim
        rank = self.device.rank
        now = sim.now
        for neighbor in self.neighbor_ranks:
            self.last_heard[neighbor] = now
        while self.node_alive(rank):
            # Deliberately consult only the *local* dead-set, never the
            # cluster's god view: a crash updates the global alive-set
            # instantly, but survivors may only learn of it through
            # missing keepalives or gossip.
            for neighbor in self.neighbor_ranks:
                if neighbor in self.dead:
                    continue
                self.stats["keepalives_sent"] += 1
                sim.spawn(
                    self.agent._send_control_safe(
                        neighbor, PacketKind.KEEPALIVE,
                    ),
                    name=f"ka[{rank}->{neighbor}]",
                )
            yield sim.timeout(self.interval)
            if not self.node_alive(rank):
                return
            now = sim.now
            for neighbor in self.neighbor_ranks:
                silence = now - self.last_heard[neighbor]
                if neighbor not in self.dead and silence > self.timeout:
                    self.suspect(
                        neighbor, f"no keepalive for {silence:.0f}us",
                    )
