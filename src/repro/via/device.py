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
from repro.hw.link import Frame
from repro.hw.nic import GigEPort
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
from repro.obs.recorder import DESC_QUEUED as _DESC_QUEUED
from repro.via.vi import VI, Reliability


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
        #: (:mod:`repro.via.offload_collective`) at its interrupt-level
        #: site (paper section 7 future work); created by
        #: :meth:`enable_kernel_collectives`.
        self.kernel_collective = None
        #: The same machine at its NIC-firmware site (Yu et al.
        #: offload); created by :meth:`enable_nic_collectives`.
        self.nic_collective = None
        #: Reliable delivery: explicit knob, else automatic — engage
        #: exactly when some attached link can *lose* frames (the
        #: legacy ``corrupt_every`` detect-and-drop knob deliberately
        #: does not trigger it, preserving its original semantics).
        self.reliable = (
            self.params.reliable
            if self.params.reliable is not None
            else any(port.link is not None and port.link.lossy
                     for port in self.ports.values())
        )
        #: Cluster-wide link-health view (set by the builder when the
        #: fault model can kill links); None = fabric always healthy.
        self._fabric_health = None
        for port in self.ports.values():
            driver = (
                lambda frame, paid_until=None, _port=port:
                self.agent.handle_frame(frame, _port, paid_until)
            )
            # Advertises the paid_until protocol to the interrupt
            # dispatcher (fold of the per-frame cost, fast path only).
            driver.folds_irq_cost = True
            port.set_driver(driver)

    def enable_kernel_collectives(self, root: int = 0):
        """Inject the reduction tree into the kernel (section 7).

        Idempotent for the same ``root``.  Re-enabling with a different
        root (which used to silently clobber the engine and orphan its
        in-flight state) and mixing offload tiers on one device (both
        engines would claim the same collective traffic) raise instead.
        """
        from repro.via.offload_collective import KernelCollective

        if self.nic_collective is not None:
            raise ViaError(
                f"node {self.rank}: kernel collectives requested but "
                f"NIC collectives are already enabled (offload tiers "
                f"are mutually exclusive per device)"
            )
        existing = self.kernel_collective
        if existing is not None:
            if existing.root != root:
                raise ViaError(
                    f"node {self.rank}: kernel collectives already "
                    f"enabled with root {existing.root}; refusing to "
                    f"silently re-root to {root}"
                )
            return existing
        self.kernel_collective = KernelCollective(self, root=root)
        return self.kernel_collective

    def enable_nic_collectives(self):
        """Load the NIC-resident collective engine onto every port.

        Installs the
        :class:`~repro.via.offload_collective.NicCollective` firmware
        hook on each attached GigE port so collective frames are
        consumed at wire level.  Idempotent; mutually exclusive with
        :meth:`enable_kernel_collectives`.
        """
        from repro.via.offload_collective import NicCollective

        if self.kernel_collective is not None:
            raise ViaError(
                f"node {self.rank}: NIC collectives requested but "
                f"kernel collectives are already enabled (offload "
                f"tiers are mutually exclusive per device)"
            )
        if self.nic_collective is not None:
            return self.nic_collective
        engine = NicCollective(self)
        self.nic_collective = engine
        for port in self.ports.values():
            port.collective_hook = engine.handle_rx
        return engine

    @property
    def collective(self):
        """The enabled offload-collective engine (either site), if any."""
        return self.kernel_collective or self.nic_collective

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
    def _fragments(self, nbytes: int):
        """Yield (offset, frag_bytes) pairs covering ``nbytes``."""
        if nbytes == 0:
            yield (0, 0)
            return
        offset = 0
        while offset < nbytes:
            yield (offset, min(self.frame_payload, nbytes - offset))
            offset += self.frame_payload

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
        """Process: fragment and enqueue one message.

        A two-sided send and a remote-DMA write take this one path; the
        descriptor's class supplies the wire kind and the RMA-only
        header fields (see
        :class:`~repro.via.descriptors.SendDescriptor`).
        """
        peer_node, peer_vi = vi.peer
        route = tuple(descriptor.route) if descriptor.route else None
        msg_id = self.next_msg_id()
        kind = descriptor.packet_kind
        remote_addr = descriptor.remote_addr
        frags = list(self._fragments(descriptor.nbytes))
        packets = []
        for index, (offset, frag_bytes) in enumerate(frags):
            last = index == len(frags) - 1
            packets.append(ViaPacket(
                kind=kind,
                src_node=self.rank,
                dst_node=peer_node,
                dst_vi=peer_vi,
                src_vi=vi.vi_id,
                msg_id=msg_id,
                frag_index=index,
                num_frags=len(frags),
                payload_bytes=frag_bytes,
                msg_offset=offset,
                msg_bytes=descriptor.nbytes,
                remote_addr=0 if remote_addr is None
                else remote_addr + offset,
                notify=descriptor.notify and last,
                immediate=descriptor.immediate if last else None,
                route=route[1:] if route else None,
                payload=descriptor.payload if last else None,
                trace=descriptor.trace,
            ))
        if self._use_reliable(vi):
            yield from self.agent.reliable_transmit(
                vi, packets, route, descriptor,
            )
            return
        port = self._route_egress(peer_node, route)
        frames = [
            Frame(packet.payload_bytes, self.params.header_bytes,
                  payload=packet.seal(), kind=kind.frame_label)
            for packet in packets
        ]
        # VIA send completion: the buffer is reusable once the last
        # fragment has been DMA'd out of host memory.
        frames[-1].on_fetched = lambda: vi.complete_send(descriptor)
        rec = self.sim.recorder
        if rec is not None and descriptor.trace is not None:
            rec.event(descriptor.trace, _DESC_QUEUED, port.name,
                      f"n{self.rank}", self.sim.now)
            rec.metrics.observe(
                "ring:" + port.name, self.sim.now,
                float(len(port.tx_queue) + port._tx_extra),
            )
        yield from port.send_frames(frames)

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
