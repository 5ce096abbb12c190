"""Modified M-VIA model — the paper's low-level communication software.

The Virtual Interface Architecture gives each process a protected,
directly accessible interface to the NIC: descriptors are posted to
per-VI send/receive queues from user space, the NIC DMAs straight to
and from registered memory, and the kernel is only involved in
connection setup, memory registration, and — in the paper's *modified*
M-VIA — the interrupt-level packet switch that forwards frames for
non-nearest-neighbor destinations across the mesh.

Layer map (mirrors Figure 1 of the paper):

* :mod:`repro.via.memory` — memory registration (kernel agent, slow path);
* :mod:`repro.via.descriptors` — VIP-style descriptors;
* :mod:`repro.via.completion` — completion queues;
* :mod:`repro.via.packet` — wire packet framing with checksum;
* :mod:`repro.via.vi` — the Virtual Interface endpoint (send/recv
  queues, RMA);
* :mod:`repro.via.kernel_agent` — connection management, rx dispatch,
  the mesh packet switch;
* :mod:`repro.via.offload_collective` — the tree-collective state
  machine and its two sites (interrupt level, NIC firmware);
* :mod:`repro.via.device` — per-node binding of VIA onto the GigE
  ports (the Jlab e1000 M-VIA driver's role);
* :mod:`repro.via.vipl` — thin VIPL-style functional facade.
"""

from repro.via.memory import MemoryRegion, ProtectionTag, RegisteredSpace
from repro.via.descriptors import (
    Descriptor,
    DescriptorStatus,
    RecvDescriptor,
    RmaWriteDescriptor,
    SendDescriptor,
)
from repro.via.completion import CompletionQueue
from repro.via.packet import PacketKind, ViaPacket
from repro.via.vi import VI, ViState, RELIABILITY_LEVELS
from repro.via.device import ViaDevice
from repro.via.kernel_agent import KernelAgent

__all__ = [
    "MemoryRegion",
    "ProtectionTag",
    "RegisteredSpace",
    "Descriptor",
    "SendDescriptor",
    "RecvDescriptor",
    "RmaWriteDescriptor",
    "DescriptorStatus",
    "CompletionQueue",
    "ViaPacket",
    "PacketKind",
    "VI",
    "ViState",
    "RELIABILITY_LEVELS",
    "ViaDevice",
    "KernelAgent",
]
