"""Hardware calibration constants.

Every number here is either taken directly from the paper, derived from
the published hardware specs of the era (Pentium 4 Xeon 2.67 GHz,
Intel Pro/1000MT on PCI-X, Myrinet LaNai9), or tuned so that the
*paper's own reported measurements* come out of the model:

* M-VIA small-message RTT/2 ~= 18.5 us (paper section 4.1, 5.1)
* M-VIA send+receive host overhead ~= 6 us (section 4.1)
* kernel packet switch per-hop latency ~= 12.5 us (section 5.1)
* M-VIA simultaneous per-link send bandwidth ~= 110 MB/s (section 4.1)
* TCP latency >= 30 % above M-VIA; simultaneous bandwidth ~37 % below
  (section 4.1)
* 2-D aggregated bandwidth flattening ~400 MB/s; 3-D peaking ~550 MB/s
  and falling toward ~400 MB/s at large sizes (section 4.2)

Parameters are frozen dataclasses so experiment configs can't mutate a
shared default by accident; ablations build modified copies with
``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import units
from repro.canonical import Canonical
from repro.hw.faults import FaultParams


@dataclass(frozen=True)
class HostParams(Canonical):
    """Per-node host (CPU + memory system) parameters."""

    #: CPU clock, for reference only (GHz). Cluster A: 2.67, B: 3.0.
    cpu_ghz: float = 2.67
    #: Memory copy bandwidth seen by protocol copies (bytes/us == MB/s).
    #: DDR-era P4 Xeon sustained copy rate ~1.2 GB/s.
    copy_rate: float = 1200.0
    #: Memory-bus total bandwidth shared by DMA and copies (MB/s).
    #: 533 MHz FSB era chipset, ~3.2 GB/s peak, ~2.1 GB/s sustained.
    membus_rate: float = 2100.0
    #: Fluid-share weight of CPU copies relative to device DMA (memory
    #: controllers prioritize CPU traffic; without this a single copy
    #: under 12-stream DMA load would starve at an equal share).
    copy_bus_weight: float = 5.0
    #: Fixed cost of taking a hardware interrupt (context switch,
    #: handler entry/exit). "expensive kernel interrupts" (section 4.1).
    interrupt_cost: float = 1.5
    #: Per-frame work inside the interrupt handler (ring scan, refill).
    interrupt_per_frame: float = 0.35
    #: Cost of a syscall crossing (TCP path only; VIA bypasses).
    syscall_cost: float = 1.1
    #: NAPI-style interrupt mitigation (paper section 7's "possible
    #: new M-VIA feature, similar to the NAPI"): after draining, the
    #: handler keeps polling for this long before re-arming the
    #: interrupt.  0 = classic interrupt-per-batch behavior.
    napi_poll_window: float = 0.0
    #: Memory in MB (cluster A nodes had 256 MB).
    memory_mb: int = 256


@dataclass(frozen=True)
class GigEParams(Canonical):
    """Intel Pro/1000MT-class copper GigE port on PCI-X."""

    #: Wire signalling rate (bytes/us). 1 Gb/s = 125 MB/s.
    wire_rate: float = units.GIGE_WIRE_RATE
    #: Ethernet payload per frame.
    mtu: int = units.ETHERNET_MTU
    #: Non-payload wire bytes per frame (headers, FCS, preamble, IFG).
    frame_overhead: int = units.ETHERNET_WIRE_OVERHEAD
    #: Cable + PHY + serdes propagation (us). Cat-6 a few meters.
    propagation: float = 0.30
    #: NIC per-descriptor processing on transmit, not overlapped with
    #: serialization (descriptor fetch, header build). Tuned so a
    #: saturated link sustains ~110 MB/s of user payload (section 4.1).
    tx_proc: float = 0.9
    #: NIC per-frame receive processing before DMA.
    rx_proc: float = 0.9
    #: Transmit/receive descriptor ring sizes. The paper's driver was
    #: loaded with 2048 + 2048 (section 3).
    tx_ring: int = 2048
    rx_ring: int = 2048
    #: Interrupt coalescing ("interrupt delay" tuning, section 3):
    #: an rx interrupt fires `coalesce_delay` us after the first
    #: undelivered frame, or immediately at `coalesce_frames` pending.
    coalesce_delay: float = 6.9
    coalesce_frames: int = 10
    #: Hardware checksum offload (the Jlab driver change, section 4).
    hw_checksum: bool = True
    #: Software checksum cost per byte when offload is off (us/byte).
    sw_checksum_per_byte: float = 0.0009
    #: PCI-X DMA: bus rate handled by BandwidthBus; per-transfer setup.
    dma_setup: float = 0.25
    #: Fault injection: damage every Nth frame per link direction
    #: (None = healthy wire).  Deterministic for reproducibility.
    corrupt_every: Optional[int] = None
    #: Generalized fault schedule (loss, flap, death; see
    #: :mod:`repro.hw.faults`).  None falls back to the ambient default
    #: established by ``faults.set_ambient`` / the bench CLI's
    #: ``--loss`` knob; a default-constructed FaultParams is healthy.
    faults: Optional[FaultParams] = None
    #: Port price, US$ (section 3: "$140 each, $420/node").
    price_per_port: float = 140.0

    def min_wire_latency(self) -> float:
        """Lower bound on any frame's link latency (microseconds).

        Serialization of a minimum-size Ethernet frame plus the
        propagation delay: no frame — not even a padded-out ACK — can
        cross a link faster than this.  The PDES engine uses it as the
        conservative-synchronization lookahead for cut links, so the
        window bound is *derived* from the calibrated wire model rather
        than hard-coded (see ``docs/PDES.md``).
        """
        # Mirrors Frame.wire_bytes for an empty body: Ethernet pads to
        # the 64-byte minimum (46 bytes of body space) before framing
        # overhead is added.
        min_wire_bytes = (units.ETHERNET_MIN_FRAME - 18) + self.frame_overhead
        return min_wire_bytes / self.wire_rate + self.propagation


@dataclass(frozen=True)
class ViaParams(Canonical):
    """Modified M-VIA protocol costs (user-level library + kernel agent)."""

    #: VIA header bytes inside the Ethernet payload.
    header_bytes: int = 42
    #: Send-side host overhead: build descriptor, ring doorbell.
    send_overhead: float = 2.68
    #: Receive-side host overhead: completion queue pop, descriptor
    #: recycle.  send+recv ~= 6 us total (section 4.1).
    recv_overhead: float = 3.68
    #: The single receive-side memory copy M-VIA performs (section 4.1
    #: "one memory copy on receiving"); rate from HostParams.copy_rate.
    recv_copy: bool = True
    #: Kernel packet-switch forwarding cost per frame at interrupt
    #: level (section 5.1: 12.5 us/hop node-to-node routing latency;
    #: most of that is the rx interrupt + tx path, this is the extra
    #: table lookup + descriptor splice).
    switch_forward_cost: float = 0.68
    #: Per-frame demultiplex cost in the rx interrupt handler (find the
    #: VI, sequence check, completion bookkeeping).
    rx_demux_cost: float = 0.3
    #: Verify per-packet checksums on receive (the Jlab modification;
    #: disabling it models stock M-VIA, which silently accepts wire
    #: damage — the fault-injection tests show the difference).
    verify_checksums: bool = True
    #: Maximum outstanding descriptors per VI send queue.
    send_queue_depth: int = 256
    recv_queue_depth: int = 256
    #: Reliable-delivery protocol (selective-repeat sequence/ACK
    #: recovery in the kernel agent).  None = auto: engage on every
    #: node exactly when some link of the fabric can *lose* frames
    #: (loss/flap/death/corrupt-rate knobs in
    #: :class:`~repro.hw.faults.FaultParams`, node faults included);
    #: legacy ``corrupt_every`` keeps its detect-and-drop-only
    #: semantics.
    reliable: Optional[bool] = None
    #: Per-VI window, in frames: bounds both the sender's
    #: unacknowledged fragments and the receiver's held map.
    rel_window: int = 64
    #: Initial retransmission timeout (us).  Must comfortably exceed
    #: RTT + the receiver's delayed-ACK window + the time an explicit
    #: ACK waits for the reverse transmit ring to drain ahead of it
    #: (ACKs are read at fetch, but queue behind whatever is posted).
    rel_rto: float = 300.0
    #: Exponential backoff multiplier and RTO ceiling (us).
    rel_rto_backoff: float = 2.0
    rel_rto_max: float = 5000.0
    #: Consecutive timeouts without ACK progress before the VI is
    #: transitioned to ERROR and pending sends fail (the VIA error
    #: surface of an unrecoverable link).
    rel_max_retries: int = 10
    #: Delayed-ACK coalescing: ACK after ``rel_ack_every`` in-order
    #: frames, or ``rel_ack_delay`` us after the first unACKed one.
    rel_ack_every: int = 4
    rel_ack_delay: float = 25.0
    #: Failure detector (engaged only when the cluster carries
    #: :class:`~repro.hw.faults.NodeFaultSpec` node faults): keepalive
    #: period between torus neighbors, and the silence threshold after
    #: which a neighbor is declared dead.  The timeout must exceed the
    #: worst transient NIC stall the deployment wants to ride out.
    fd_interval: float = 200.0
    fd_timeout: float = 1000.0


@dataclass(frozen=True)
class TcpParams(Canonical):
    """Linux 2.4-era kernel TCP/IP stack costs over the same GigE port."""

    #: TCP/IP header bytes per segment (IP 20 + TCP 20 + options 12).
    header_bytes: int = 52
    #: Sender kernel path per message: socket locking, sk_buff setup,
    #: segmentation entry (syscall cost is in HostParams).
    send_overhead: float = 3.2
    #: Per-byte copy user->kernel on send (in addition to DMA).
    send_copy: bool = True
    #: Receiver per-message path: socket wakeup, scheduler latency back
    #: to the blocked reader.
    recv_overhead: float = 3.6
    #: Per-segment transmit-side protocol processing (TCP output, IP,
    #: queueing discipline).
    per_segment_tx: float = 5.3
    #: Per-segment receive-side protocol processing (softirq: IP input,
    #: TCP input, socket queueing).
    per_segment_rx: float = 6.9
    #: Copies on receive: NIC->kernel buffer (DMA) then kernel->user.
    recv_copy: bool = True
    #: ACK build/processing cost per ACK (each side).
    ack_cost: float = 0.6
    #: Segments per ACK (delayed ACK every 2 segments; end-of-message
    #: segments are ACKed immediately).
    segments_per_ack: int = 2
    #: Send-window / socket-buffer bytes in flight before blocking.
    window_bytes: int = 262144
    #: Kernel IP-forwarding cost per packet for non-nearest-neighbor
    #: routes (the MPICH-P4 "careful routing table" configuration).
    ip_forward_cost: float = 2.6


@dataclass(frozen=True)
class MyrinetParams(Canonical):
    """Myrinet LaNai9 + Myrinet 2000 switch comparator (section 3, 6).

    Published GM-over-LaNai9 numbers of the period: ~7-9 us one-way
    latency, ~240 MB/s unidirectional bandwidth (2+2 Gb/s links).
    """

    #: One-way small-message latency through one switch (us).
    latency: float = 8.5
    #: Per-link bandwidth (bytes/us).
    bandwidth: float = 245.0
    #: Extra latency per additional switch element.
    per_switch_hop: float = 0.5
    #: Host send+recv overhead (OS-bypass GM, very low).
    host_overhead: float = 2.2
    #: Port price including switch amortization, US$ (section 3).
    price_per_port: float = 1000.0


def default_host() -> HostParams:
    """Cluster A node: single P4 Xeon 2.67 GHz, 256 MB."""
    return HostParams()


def default_gige() -> GigEParams:
    """Intel Pro/1000MT port as tuned by the Jlab driver."""
    return GigEParams()


def default_via() -> ViaParams:
    """Modified M-VIA 1.2 defaults."""
    return ViaParams()


def default_tcp() -> TcpParams:
    """RedHat 9 / kernel 2.4.20 TCP over the same adapters."""
    return TcpParams()


def default_myrinet() -> MyrinetParams:
    """LaNai9 + Myrinet 2000 Clos switch."""
    return MyrinetParams()
