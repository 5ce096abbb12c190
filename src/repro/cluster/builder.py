"""Build simulated mesh clusters.

A :class:`MeshCluster` owns one :class:`~repro.sim.Simulator` plus, per
node, a :class:`~repro.hw.node.Host` and one GigE port per mesh
direction, wired with full-duplex links exactly as the Jlab machines
were cabled: dual-port adapters, one adapter (= one PCI-X slot) per
axis, the +axis port and -axis port of each node cabled to the
corresponding neighbors.

Protocol stacks attach afterwards: :meth:`MeshCluster.attach_via`
installs a :class:`~repro.via.device.ViaDevice` per node (the modified
M-VIA), :meth:`MeshCluster.attach_tcp` installs the TCP baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.hw import faults as fault_model
from repro.hw.faults import FaultInjector, NodeFaultSpec, merge_node_faults
from repro.hw.link import BoundaryLink, Link
from repro.hw.nic import GigEPort
from repro.hw.node import Host
from repro.hw.params import GigEParams, HostParams, TcpParams, ViaParams
from repro.sim import Simulator
from repro.topology.torus import Direction, Torus

if TYPE_CHECKING:
    from repro.topology.partition import ShardPlan


@dataclass
class MeshNode:
    """One cluster node: host resources plus its wired GigE ports."""

    rank: int
    host: Host
    ports: Dict[int, GigEPort] = field(default_factory=dict)
    #: Set by attach_via / attach_tcp.
    via: Optional[object] = None
    tcp: Optional[object] = None


class MeshCluster:
    """A wired mesh/torus of simulated nodes."""

    def __init__(self, torus: Torus,
                 sim: Optional[Simulator] = None,
                 host_params: Optional[HostParams] = None,
                 gige_params: Optional[GigEParams] = None,
                 node_faults: Optional[Sequence[NodeFaultSpec]] = None,
                 shard_plan: Optional[ShardPlan] = None,
                 shard_id: Optional[int] = None,
                 ) -> None:
        self.sim = sim or Simulator()
        self.torus = torus
        self.host_params = host_params or HostParams()
        self.gige_params = gige_params or GigEParams()
        self.node_faults = tuple(node_faults or ())
        for spec in self.node_faults:
            if not 0 <= spec.rank < torus.size:
                raise ConfigurationError(
                    f"NodeFaultSpec rank {spec.rank} outside "
                    f"0..{torus.size - 1}"
                )
        if (shard_plan is None) != (shard_id is None):
            raise ConfigurationError(
                "shard_plan and shard_id must be given together"
            )
        self.shard_plan = shard_plan
        self.shard_id = shard_id
        if shard_plan is not None:
            if tuple(shard_plan.dims) != tuple(torus.dims) \
                    or shard_plan.wrap != torus.wrap:
                raise ConfigurationError(
                    f"shard plan {shard_plan.dims}/wrap={shard_plan.wrap} "
                    f"does not match {torus!r}"
                )
            if self.node_faults:
                raise ConfigurationError(
                    "sharded (PDES) runs are fault-free: node faults "
                    "require the sequential engine"
                )
            self._local_ranks = frozenset(shard_plan.local_ranks(shard_id))
        else:
            self._local_ranks = None
        #: Cross-shard egress commits appended by every
        #: :class:`~repro.hw.link.BoundaryLink`; the shard runtime
        #: drains this at each conservative-window barrier.
        self.pdes_outbox: List[tuple] = []
        #: Mesh-wide alive-set (the failure detector's published view).
        self._alive = [True] * torus.size
        #: (rank, time, declared-by, reason) death records, in order.
        self.death_log: List[tuple] = []
        self.watchdog = None
        directions = torus.directions()
        if not directions:
            raise ConfigurationError(f"{torus!r} has no links to wire")
        # One dual-port adapter per axis -> one PCI-X slot per axis.
        num_pci = max(1, (max(d.port for d in directions) // 2) + 1)
        #: Indexed by rank; ``None`` placeholders for ranks owned by
        #: other shards keep rank indexing uniform everywhere.
        self.nodes: List[Optional[MeshNode]] = []
        for rank in torus.ranks():
            if (self._local_ranks is not None
                    and rank not in self._local_ranks):
                self.nodes.append(None)
                continue
            host = Host(self.sim, rank, self.host_params,
                        num_pci_buses=num_pci)
            node = MeshNode(rank=rank, host=host)
            for direction in directions:
                if torus.has_neighbor(rank, direction):
                    port = GigEPort(
                        self.sim, host, self.gige_params,
                        pci_index=direction.port // 2,
                        name=f"n{rank}:{direction}",
                    )
                    node.ports[direction.port] = port
            self.nodes.append(node)
        self.links: List[Link] = []
        self._wire()

    def _wire(self) -> None:
        g = self.gige_params
        fault_params = g.faults or fault_model.ambient()
        if fault_params is not None and not fault_params.lossy():
            fault_params = None
        if self._local_ranks is not None and (
                fault_params is not None or g.corrupt_every is not None):
            raise ConfigurationError(
                "sharded (PDES) runs are fault-free: link faults and "
                "corrupt_every require the sequential engine"
            )
        #: (rank, port index) -> the Link wired there.
        self._link_map: Dict[tuple, Link] = {}
        for rank in self.torus.ranks():
            for direction in self.torus.directions():
                if direction.sign < 0:
                    continue
                if not self.torus.has_neighbor(rank, direction):
                    continue
                neighbor = self.torus.neighbor(rank, direction)
                name = f"link[{rank}{direction}{neighbor}]"
                if self._local_ranks is not None:
                    rank_local = rank in self._local_ranks
                    neighbor_local = neighbor in self._local_ranks
                    if not rank_local and not neighbor_local:
                        continue
                    if rank_local != neighbor_local:
                        # Cut link: wire a boundary proxy on the local
                        # endpoint only.  Same name and side numbering
                        # as the reference link so frame timing, span
                        # tracks and the canonical ingress sort agree
                        # with the sequential engine.
                        if rank_local:
                            local_rank, local_port = rank, direction.port
                            remote_rank = neighbor
                            remote_port = direction.opposite.port
                            side = 0
                        else:
                            local_rank = neighbor
                            local_port = direction.opposite.port
                            remote_rank, remote_port = rank, direction.port
                            side = 1
                        link = BoundaryLink(
                            self.sim, g.wire_rate, g.frame_overhead,
                            g.propagation, name=name,
                            outbox=self.pdes_outbox,
                            remote_rank=remote_rank,
                            remote_port=remote_port,
                        )
                        self.nodes[local_rank].ports[local_port] \
                            .attach_link(link, side)
                        self._link_map[(local_rank, local_port)] = link
                        self.links.append(link)
                        continue
                # Node faults compose onto the link schedule: a crash
                # at either endpoint kills the link, a NIC outage
                # window downs it transiently.
                link_params = merge_node_faults(fault_params, tuple(
                    spec for spec in self.node_faults
                    if spec.rank in (rank, neighbor)
                ))
                injector = (
                    FaultInjector(link_params, name)
                    if link_params is not None and link_params.lossy()
                    else None
                )
                link = Link(
                    self.sim, g.wire_rate, g.frame_overhead, g.propagation,
                    name=name,
                    corrupt_every=g.corrupt_every,
                    faults=injector,
                )
                self.nodes[rank].ports[direction.port].attach_link(link, 0)
                self.nodes[neighbor].ports[
                    direction.opposite.port
                ].attach_link(link, 1)
                self._link_map[(rank, direction.port)] = link
                self._link_map[(neighbor, direction.opposite.port)] = link
                self.links.append(link)
        #: The FaultParams the links were wired with (None = lossless).
        self.fault_params = fault_params
        #: Links that can die permanently (dead-link reroute checks
        #: only these, keeping the healthy-fabric path O(1)-ish).
        self._mortal_links = tuple(
            link for link in self.links
            if link.faults is not None
            and link.faults.params.die_at is not None
        )
        # Fail-stop crashes: tear the victim's own endpoints down at
        # the crash instant (its links die via the merged schedules).
        from repro.sim.events import Callback

        for spec in self.node_faults:
            if spec.crash_at is not None:
                Callback(self.sim,
                         lambda rank=spec.rank: self._node_crashed(rank),
                         delay=spec.crash_at)

    # -- link health --------------------------------------------------------
    def link_alive(self, rank: int, direction: Direction,
                   now: Optional[float] = None) -> bool:
        """Is the link out of ``rank`` in ``direction`` alive?"""
        link = self._link_map.get((rank, direction.port))
        if link is None:
            return False
        return not link.is_dead(self.sim.now if now is None else now)

    def fabric_can_degrade(self) -> bool:
        """Whether any wired link can die permanently."""
        return bool(self._mortal_links)

    def degraded(self, now: float) -> bool:
        """Any link permanently dead at ``now``?  (FabricHealth API.)"""
        return any(link.is_dead(now) for link in self._mortal_links)

    def alive(self, rank: int, direction: Direction, now: float) -> bool:
        """FabricHealth API used by dead-link rerouting."""
        return self.link_alive(rank, direction, now)

    @property
    def size(self) -> int:
        return self.torus.size

    def node(self, rank: int) -> MeshNode:
        return self.nodes[rank]

    # -- node health (the failure detector's published view) ----------------
    def node_alive(self, rank: int) -> bool:
        """Mesh-wide alive-set entry for ``rank``."""
        return self._alive[rank]

    def alive_ranks(self) -> List[int]:
        """Sorted world ranks currently believed alive."""
        return [rank for rank in range(self.size) if self._alive[rank]]

    def declare_dead(self, rank: int, by: Optional[int] = None,
                     reason: str = "") -> bool:
        """Mark ``rank`` dead in the alive-set (idempotent).

        Called by the failure detectors (keepalive silence, retry
        exhaustion) and by the crash scheduler itself.  Returns True
        on the first declaration.
        """
        if not self._alive[rank]:
            return False
        self._alive[rank] = False
        self.death_log.append((rank, self.sim.now, by, reason))
        return True

    def _node_crashed(self, rank: int) -> None:
        """Fail-stop crash: victim-side teardown at the crash instant.

        The victim's links die through the merged link schedules; this
        hook errors the victim's own VIs and pending requests so its
        program observes the failure too.
        """
        if not self._alive[rank]:
            return
        self.declare_dead(rank, by=rank, reason="crashed")
        node = self.nodes[rank]
        if node.via is not None:
            node.via.liveness.on_local_crash()

    def observability(self):
        """Attach (idempotently) and return the flight recorder.

        Attach before driving traffic so every message gets a trace id
        at its entry point.  See ``docs/OBSERVABILITY.md``.
        """
        if self.sim.recorder is None:
            from repro.obs import FlightRecorder

            self.sim.recorder = FlightRecorder()
        return self.sim.recorder

    def config_hash(self) -> str:
        """Stable content hash of this cluster's full configuration.

        Covers topology (dims + wrap), host/GigE params (including any
        per-link fault schedule), the resolved ambient fault params and
        node-fault specs, plus the code version — the same identity the
        service layer's result cache is keyed on, so the hash printed
        by a hang report names a re-runnable configuration.
        """
        from repro import __version__
        from repro.canonical import content_hash

        return content_hash({
            "dims": list(self.torus.dims),
            "wrap": self.torus.wrap,
            "host": self.host_params,
            "gige": self.gige_params,
            "faults": self.fault_params,
            "node_faults": list(self.node_faults),
            "version": __version__,
        })

    @property
    def fault_seed(self) -> Optional[int]:
        """The deterministic fault-stream seed, when faults are wired."""
        if self.fault_params is not None:
            return self.fault_params.seed
        if self.node_faults:
            # Node-fault-only runs still derive link schedules from the
            # default stream seed.
            return 0
        return None

    def hang_report(self) -> str:
        """Diagnostic naming stuck VIs/requests/ranks (watchdog food)."""
        from repro.ckpt import context as ckpt_context

        recorder = getattr(self.sim, "recorder", None)
        lines = [
            f"run identity: config_hash={self.config_hash()[:16]} "
            f"fault_seed={self.fault_seed}",
            f"alive-set: {self.alive_ranks()} of {self.size}",
        ]
        note = ckpt_context.current()
        if note is not None:
            lines.insert(1, (
                f"latest checkpoint: {note.ckpt_id} "
                f"(resume picks up after {note.kind} {note.index})"
            ))
        for rank, when, by, reason in self.death_log:
            lines.append(
                f"  death: rank {rank} at t={when:.1f}us "
                f"(declared by {by}: {reason})"
            )
        for node in self.nodes:
            if node is None or node.via is None:
                continue
            agent = node.via.agent
            for vi in node.via.vis.values():
                channel = agent._channels.get(vi.vi_id)
                unacked = len(channel.unacked) if channel else 0
                if (vi.recv_queue or vi._reassembly is not None
                        or unacked):
                    lines.append(
                        f"  rank {node.rank} {vi!r}: "
                        f"{len(vi.recv_queue)} posted recvs, "
                        f"{unacked} unACKed sends"
                        + (", mid-reassembly"
                           if vi._reassembly is not None else "")
                    )
                    if recorder is not None:
                        # Last flight-recorder spans on the stuck VI's
                        # node: what the message was doing when it
                        # stopped making progress.
                        for span in recorder.tail(
                                track=f"n{node.rank}", limit=20):
                            lines.append("    " + span.describe())
            engine = node.via.engine
            if engine is not None and engine.pending_requests():
                pending = engine.pending_requests()
                preview = ", ".join(repr(r) for r in pending[:4])
                lines.append(
                    f"  rank {node.rank}: {len(pending)} pending "
                    f"requests ({preview}"
                    + (", ..." if len(pending) > 4 else "") + ")"
                )
        # Wall-clock telemetry (top counters + event-log tail) makes
        # the hang dump self-contained: what the *process* was doing,
        # next to what the simulation was doing.  Omitted when the
        # plane is off.
        from repro import telemetry

        summary = telemetry.hang_summary(top=10, tail=20)
        if summary is not None:
            lines.append(summary)
        return "\n".join(lines)

    # -- protocol stacks ---------------------------------------------------
    def attach_via(self, via_params: Optional[ViaParams] = None) -> None:
        """Install the modified M-VIA on every node."""
        from repro.via.device import ViaDevice

        params = via_params or ViaParams()
        if params.reliable is None:
            # Delivery is end to end: a frame crosses other nodes'
            # links, so one link that can lose frames (a crashed
            # relay's included) engages reliability on every node.
            params = replace(params, reliable=any(
                link.lossy for link in self.links))
        for node in self.nodes:
            if node is None:
                continue
            if node.via is not None or node.tcp is not None:
                raise ConfigurationError(
                    f"node {node.rank} already has a protocol stack"
                )
            node.via = ViaDevice(
                self.sim, node.host, node.rank, self.torus, node.ports,
                params=params,
            )
            if self.fabric_can_degrade():
                node.via.set_fabric_health(self)
            if self.node_faults:
                from repro.via.liveness import Liveness

                node.via.liveness = Liveness(node.via, self)
        if self.node_faults and self.watchdog is None:
            from repro.obs.monitor import Watchdog

            self.watchdog = Watchdog(self)
            self.sim.hang_diagnostics = self.hang_report

    def reliability_stats(self) -> Dict[str, int]:
        """Aggregate reliable-delivery/fault counters across the mesh.

        Sums the kernel agents' protocol counters and the links'
        drop/corrupt counters; zero everywhere on a lossless run.
        """
        from repro.obs.monitor import RELIABILITY_COUNTERS

        totals = {key: 0 for key in RELIABILITY_COUNTERS}
        for node in self.nodes:
            if node is None or node.via is None:
                continue
            stats = node.via.agent.stats
            for key in RELIABILITY_COUNTERS:
                totals[key] += stats.get(key, 0)
        for link in self.links:
            totals["frames_dropped"] = totals.get("frames_dropped", 0) + \
                sum(link.stats["dropped"])
            totals["frames_corrupted"] = \
                totals.get("frames_corrupted", 0) + \
                sum(link.stats["corrupted"])
        if self.watchdog is not None:
            totals["hangs_detected"] = self.watchdog.counters[
                "hangs_detected"]
            totals["retry_storms"] = self.watchdog.counters[
                "retry_storms"]
        return totals

    def attach_tcp(self, tcp_params: Optional[TcpParams] = None) -> None:
        """Install the kernel TCP/IP baseline on every node."""
        from repro.tcpip.stack import TcpStack

        params = tcp_params or TcpParams()
        for node in self.nodes:
            if node is None:
                continue
            if node.via is not None or node.tcp is not None:
                raise ConfigurationError(
                    f"node {node.rank} already has a protocol stack"
                )
            node.tcp = TcpStack(
                self.sim, node.host, node.rank, self.torus, node.ports,
                params=params,
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"MeshCluster({self.torus!r})"


def build_mesh(dims, wrap: bool = True, stack: str = "via",
               sim: Optional[Simulator] = None,
               host_params: Optional[HostParams] = None,
               gige_params: Optional[GigEParams] = None,
               via_params: Optional[ViaParams] = None,
               tcp_params: Optional[TcpParams] = None,
               node_faults: Optional[Sequence[NodeFaultSpec]] = None,
               shard_plan: Optional[ShardPlan] = None,
               shard_id: Optional[int] = None,
               ) -> MeshCluster:
    """One-call cluster factory.

    ``stack`` is ``"via"``, ``"tcp"`` or ``"none"``.  ``node_faults``
    (a sequence of :class:`~repro.hw.faults.NodeFaultSpec`) arms the
    node-failure machinery: per-node crash/NIC-outage schedules, the
    keepalive failure detector, and the hang watchdog.  ``shard_plan``
    plus ``shard_id`` build only that shard's slab of the mesh, with
    :class:`~repro.hw.link.BoundaryLink` proxies on cut links (see
    :mod:`repro.pdes`).
    """
    cluster = MeshCluster(Torus(dims, wrap=wrap), sim=sim,
                          host_params=host_params, gige_params=gige_params,
                          node_faults=node_faults,
                          shard_plan=shard_plan, shard_id=shard_id)
    if stack == "via":
        cluster.attach_via(via_params)
    elif stack == "tcp":
        cluster.attach_tcp(tcp_params)
    elif stack != "none":
        raise ConfigurationError(f"unknown stack {stack!r}")
    return cluster
