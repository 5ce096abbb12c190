"""The per-node VIA device — the role of the Jlab e1000 M-VIA driver.

A :class:`ViaDevice` binds the VIA object model onto a node's GigE
ports: it fragments descriptors into checksummed wire packets, picks
the egress port with the Shortest-Direction-First rule (direct port for
nearest neighbors, first SDF hop otherwise), installs the receive
driver on every port, and owns the node's kernel agent and registered
memory space.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.errors import ConfigurationError, ViaError
from repro.hw.link import Frame, padded_bytes
from repro.hw.nic import Burst, GigEPort, PortDriver
from repro.hw.node import Host
from repro.hw.params import ViaParams
from repro.sim import Simulator
from repro.topology.routing import alive_path, sdf_next_direction
from repro.topology.torus import Torus
from repro.via.completion import CompletionQueue
from repro.via.descriptors import Descriptor
from repro.via.kernel_agent import KernelAgent
from repro.via.memory import MemoryRegion, ProtectionTag, RegisteredSpace
from repro.via.packet import PacketKind, ViaPacket
from repro.obs import DESC_QUEUED as _DESC_QUEUED
from repro.via.vi import VI, Reliability


class Fragments(Burst):
    """One message as wire fragments, each cut when it is taken.

    Built when the message is posted, from what its fragments need of
    the descriptor then — the descriptor may change afterwards — and
    nothing else: fragment ``index`` is cut by :meth:`packet` (the
    reliable channel's template, as its window admits it) or
    :meth:`frame` (the sealed frame, as the NIC takes it).  Every
    fragment carries ``size`` payload bytes but the last, which carries
    the rest, and the completion fields: ``notify``, ``immediate``,
    ``payload`` and, for the NIC, the send-completion hook.
    """

    __slots__ = ("kind", "src_node", "dst_node", "dst_vi", "src_vi",
                 "msg_id", "nbytes", "size", "header", "remote_addr",
                 "route", "notify", "immediate", "payload", "trace",
                 "vi", "descriptor")

    def __init__(self, device: "ViaDevice", vi: VI,
                 descriptor: Descriptor, msg_id: int,
                 route: Optional[tuple]) -> None:
        nbytes = descriptor.nbytes
        size = device.frame_payload
        self.count = -(-nbytes // size) or 1
        self.taken = 0
        self.kind = descriptor.packet_kind
        self.src_node = device.rank
        self.dst_node, self.dst_vi = vi.peer
        self.src_vi = vi.vi_id
        self.msg_id = msg_id
        self.nbytes = nbytes
        self.size = size
        self.header = device.params.header_bytes
        self.remote_addr = descriptor.remote_addr
        self.route = route[1:] if route else None
        self.notify = descriptor.notify
        self.immediate = descriptor.immediate
        self.payload = descriptor.payload
        self.trace = descriptor.trace
        self.vi = vi
        self.descriptor = descriptor

    def packet(self, index: int) -> ViaPacket:
        """Fragment ``index``'s packet, unsealed."""
        offset = index * self.size
        last = index == self.count - 1
        remote_addr = self.remote_addr
        packet = ViaPacket(
            self.kind, self.src_node, self.dst_node, self.dst_vi,
            self.src_vi, self.msg_id, index, self.count,
            min(self.size, self.nbytes - offset), offset, self.nbytes,
            0 if remote_addr is None else remote_addr + offset,
            self.notify and last, self.immediate if last else None,
            self.route, -1, -1, self.payload if last else None,
        )
        # Not a twentieth argument: see ``ViaPacket.clone``.
        packet.trace = self.trace
        return packet

    def frame(self, index: int) -> Frame:
        """Fragment ``index`` as the NIC sends it: sealed, and the last
        one completes the send once fetched (the buffer is reusable
        once its last byte has been DMA'd out of host memory)."""
        packet = self.packet(index).seal()
        return Frame(packet.payload_bytes, self.header, packet,
                     self.kind.frame_label,
                     self.fetched if index == self.count - 1 else None)

    def fetched(self) -> None:
        self.vi.complete_send(self.descriptor)

    def sizes(self):
        size, header = self.size, self.header
        rest = self.nbytes - size * (self.count - 1)
        return itertools.chain(
            itertools.repeat((size, padded_bytes(size, header)),
                             self.count - 1),
            ((rest, padded_bytes(rest, header)),))


class ViaDevice:
    """VIA provider instance on one mesh node.

    Parameters
    ----------
    sim, host:
        Simulation and host resources for this node.
    rank, torus:
        The node's position in the mesh (drives routing).
    ports:
        Mapping from port index (:attr:`Direction.port
        <repro.topology.torus.Direction.port>`) to the GigE port wired
        in that direction.
    params:
        M-VIA cost constants.
    """

    def __init__(self, sim: Simulator, host: Host, rank: int, torus: Torus,
                 ports: Dict[int, GigEPort],
                 params: Optional[ViaParams] = None) -> None:
        if not ports:
            raise ConfigurationError(f"node {rank}: VIA device with no ports")
        self.sim = sim
        self.host = host
        self.rank = rank
        self.torus = torus
        self.ports = dict(ports)
        self.params = params or ViaParams()
        self.memory = RegisteredSpace()
        self.agent = KernelAgent(self)
        self._vi_ids = itertools.count(1)
        # Message ids are allocated per device, not process-globally:
        # a shard runtime rebuilt mid-process (checkpoint replay) must
        # reproduce the exact ids of its first life, or fragments
        # resent across a shard boundary would mismatch the peer's
        # in-progress reassembly.  Per-VI streams never interleave
        # messages, so cross-device collisions are harmless.  A plain
        # int (not itertools.count) so state digests can cover it.
        self._next_msg_id = 0
        self.vis: Dict[int, VI] = {}
        #: User payload bytes per Ethernet frame after the VIA header.
        mtu = next(iter(self.ports.values())).params.mtu
        self.frame_payload = mtu - self.params.header_bytes
        if self.frame_payload <= 0:
            raise ConfigurationError("VIA header larger than MTU")
        #: The offload-collective state machine
        #: (:mod:`repro.via.offload_collective`) at whichever site was
        #: enabled: interrupt level (paper section 7 future work,
        #: :meth:`enable_kernel_collectives`) or NIC firmware (Yu et al.
        #: offload, :meth:`enable_nic_collectives`); None = neither.
        self.collective = None
        #: Reliable delivery (the cluster builder resolves the
        #: automatic setting fabric-wide before the device exists).
        self.reliable = bool(self.params.reliable)
        #: Cluster-wide link-health view for dead-link rerouting (set
        #: by the builder when links can die); None = always healthy.
        self._fabric_health = None
        #: The node-fault owner (:class:`~repro.via.liveness.Liveness`),
        #: set by the builder exactly when the cluster has node faults.
        self.liveness = None
        #: The messaging engine on this device, if any (it sets this).
        self.engine = None
        for port in self.ports.values():
            port.set_driver(PortDriver(self.agent.handle_frame, port))

    def enable_kernel_collectives(self):
        """Run offload collectives in the kernel (section 7).

        Idempotent; mutually exclusive with
        :meth:`enable_nic_collectives` (both engines would claim the
        same collective traffic).  Each collective names its own tree
        root.
        """
        from repro.via.offload_collective import KernelCollective

        return self._enable_collective(KernelCollective)

    def enable_nic_collectives(self):
        """Load the NIC-resident collective engine onto every port.

        Installs the
        :class:`~repro.via.offload_collective.NicCollective` firmware
        hook on each attached GigE port so collective frames are
        consumed at wire level.  Idempotent; mutually exclusive with
        :meth:`enable_kernel_collectives`.
        """
        from repro.via.offload_collective import NicCollective

        engine = self._enable_collective(NicCollective)
        for port in self.ports.values():
            port.collective_hook = engine.handle_rx
        return engine

    def _enable_collective(self, site):
        engine = self.collective
        if engine is None:
            engine = self.collective = site(self)
        elif type(engine) is not site:
            raise ViaError(
                f"node {self.rank}: {site.label} collectives requested "
                f"but {engine.label} collectives are already enabled "
                f"(offload tiers are mutually exclusive per device)"
            )
        return engine

    # -- user-facing object factory ---------------------------------------------
    def create_protection_tag(self) -> ProtectionTag:
        return ProtectionTag.create()

    def next_msg_id(self) -> int:
        """Allocate a message id from this device's own stream."""
        value = self._next_msg_id
        self._next_msg_id = value + 1
        return value

    def create_vi(self, tag: ProtectionTag,
                  send_cq: Optional[CompletionQueue] = None,
                  recv_cq: Optional[CompletionQueue] = None,
                  reliability: Reliability = Reliability.RELIABLE_DELIVERY,
                  ) -> VI:
        vi = VI(self, next(self._vi_ids), tag, send_cq=send_cq,
                recv_cq=recv_cq, reliability=reliability)
        self.vis[vi.vi_id] = vi
        return vi

    def create_cq(self, name: str = "") -> CompletionQueue:
        return CompletionQueue(self.sim, name=name or f"cq[{self.rank}]")

    def register_memory(self, nbytes: int, tag: ProtectionTag,
                        rma_write: bool = False):
        """Process: pin ``nbytes`` (kernel slow path, pays real time)."""
        yield from self.host.cpu_work(self.memory.register_cost(nbytes))
        return self.memory.register(nbytes, tag, rma_write=rma_write)

    def register_memory_now(self, nbytes: int, tag: ProtectionTag,
                            rma_write: bool = False) -> MemoryRegion:
        """Zero-time registration, for setup phases the paper's
        benchmarks exclude from timing."""
        return self.memory.register(nbytes, tag, rma_write=rma_write)

    # -- routing ------------------------------------------------------------
    def set_fabric_health(self, health) -> None:
        """Install the cluster's link-health view (``degraded(now)`` /
        ``alive(rank, direction, now)``) for dead-link rerouting."""
        self._fabric_health = health

    def fabric_degraded(self) -> bool:
        """Any permanently dead link in the fabric right now?"""
        health = self._fabric_health
        return health is not None and health.degraded(self.sim.now)

    def egress_port(self, dst_node: int,
                    packet: Optional[ViaPacket] = None) -> GigEPort:
        """Port on the first SDF hop toward ``dst_node``.

        While the fabric is degraded (a link died permanently), routing
        switches to a deterministic breadth-first search over the live
        links; the possibly non-minimal detour is stamped onto
        ``packet.route`` as an explicit source route so downstream
        switches follow it instead of re-deriving (possibly looping)
        per-hop choices.  The route field is excluded from the packet
        checksum precisely so it can be rewritten after sealing.
        """
        health = self._fabric_health
        if health is not None and health.degraded(self.sim.now):
            now = self.sim.now
            path = alive_path(
                self.torus, self.rank, dst_node,
                lambda rank, d: health.alive(rank, d, now),
            )
            if not path:
                raise ViaError(
                    f"node {self.rank}: no live route to {dst_node}"
                )
            direction = path[0]
            if packet is not None:
                packet.route = (
                    tuple(d.port for d in path[1:]) if len(path) > 1
                    else None
                )
        else:
            direction = sdf_next_direction(self.torus, self.rank, dst_node)
            if direction is None:
                raise ViaError(f"node {self.rank}: no route to {dst_node}")
        port = self.ports.get(direction.port)
        if port is None:
            raise ConfigurationError(
                f"node {self.rank}: no adapter on port {direction.port} "
                f"({direction})"
            )
        return port

    # -- transmit paths ------------------------------------------------------
    def _route_egress(self, dst_node: int, route) -> "GigEPort":
        """Egress port: first hop of an explicit route, else SDF."""
        if route:
            port = self.ports.get(route[0])
            if port is None:
                raise ConfigurationError(
                    f"node {self.rank}: route starts on missing port "
                    f"{route[0]}"
                )
            return port
        return self.egress_port(dst_node)

    def _use_reliable(self, vi: VI) -> bool:
        return self.reliable and vi.reliability is not Reliability.UNRELIABLE

    def transmit(self, vi: VI, descriptor: Descriptor):
        """Process: post one message's fragments.

        A two-sided send and a remote-DMA write take this one path; the
        descriptor's class supplies the wire kind and the RMA-only
        header fields (see
        :class:`~repro.via.descriptors.SendDescriptor`).  No fragment
        exists yet: the reliable channel cuts each as its window admits
        it, the NIC as it takes it (:class:`Fragments`).
        """
        route = tuple(descriptor.route) if descriptor.route else None
        fragments = Fragments(self, vi, descriptor, self.next_msg_id(),
                              route)
        if self._use_reliable(vi):
            yield from self.agent.reliable_transmit(
                vi, fragments, route, descriptor,
            )
            return
        port = self._route_egress(fragments.dst_node, route)
        rec = self.sim.recorder
        if rec is not None and descriptor.trace is not None:
            rec.event(descriptor.trace, _DESC_QUEUED, port.name,
                      f"n{self.rank}", self.sim.now)
        yield from port.send_frames(fragments)

    def transmit_control(self, dst_node: int, kind: PacketKind,
                         dst_vi: int, src_vi: int, payload=None):
        """Process: one-frame control packet (connect/accept/teardown)."""
        packet = ViaPacket(
            kind=kind,
            src_node=self.rank,
            dst_node=dst_node,
            dst_vi=dst_vi,
            src_vi=src_vi,
            msg_id=self.next_msg_id(),
            payload_bytes=0,
            payload=payload,
        ).seal()
        port = self.egress_port(dst_node, packet=packet)
        frame = Frame(0, self.params.header_bytes, payload=packet,
                      kind=kind.frame_label)
        yield from port.enqueue_tx(frame)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ViaDevice(rank={self.rank}, ports={sorted(self.ports)})"
