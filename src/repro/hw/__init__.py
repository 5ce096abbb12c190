"""Calibrated hardware models.

This package models the cluster hardware the paper measured on:

* :mod:`repro.hw.params` — every calibration constant, with the paper
  section it came from;
* :mod:`repro.hw.link` — full-duplex copper GigE links;
* :mod:`repro.hw.pci` — PCI-X bus and memory-bus bandwidth sharing;
* :mod:`repro.hw.node` — the host: CPU resource, memory copies,
  interrupt dispatch;
* :mod:`repro.hw.nic` — the Intel Pro/1000MT-class GigE port model
  with descriptor rings, DMA, interrupt coalescing and checksum
  offload;
* :mod:`repro.hw.myrinet` — the Myrinet LaNai9 + switch comparator.

The models are event-level, not cycle-level: each Ethernet frame is one
unit of work moving through tx-processing -> DMA -> wire -> rx-DMA ->
interrupt -> protocol handler, with the CPU, PCI-X buses and memory bus
as contended resources.  That granularity is exactly enough to make the
paper's latency/bandwidth/aggregation curves emerge from first
principles rather than being painted on.
"""

from repro._lazy import lazy_exports
from repro.hw.params import (
    GigEParams,
    HostParams,
    MyrinetParams,
    TcpParams,
    ViaParams,
    default_gige,
    default_host,
    default_myrinet,
    default_tcp,
    default_via,
)
from repro.hw.link import Frame, Link
from repro.hw.pci import BandwidthBus
from repro.hw.node import (
    Host,
    PRIO_COMPUTE,
    PRIO_IRQ,
    PRIO_KERNEL,
    PRIO_USER,
)
from repro.hw.nic import GigEPort

#: Resolved on first access: only the Myrinet comparator builds these.
_EXPORTS = {"MyrinetFabric": "myrinet"}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())

__all__ = [
    "GigEParams",
    "HostParams",
    "ViaParams",
    "TcpParams",
    "MyrinetParams",
    "default_gige",
    "default_host",
    "default_via",
    "default_tcp",
    "default_myrinet",
    "Frame",
    "Link",
    "BandwidthBus",
    "Host",
    "GigEPort",
    "MyrinetFabric",
    "PRIO_IRQ",
    "PRIO_KERNEL",
    "PRIO_USER",
    "PRIO_COMPUTE",
]
