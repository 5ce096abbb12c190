"""Utilization reporting for simulated clusters.

Turns the per-component statistics every model keeps (link frame/byte
counters, memory-bus transfer totals, CPU busy time, interrupt counts)
into a readable post-run report — the kind of visibility the paper's
authors needed when they diagnosed "difficulties of fully pipelining
the 6 GigE links in a single process".
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.model import mesh_loggp

if TYPE_CHECKING:
    from repro.cluster.builder import MeshCluster


@dataclass(frozen=True)
class LinkUtilization:
    """One link's traffic over an interval."""

    name: str
    bytes_forward: float
    bytes_reverse: float
    utilization_forward: float
    utilization_reverse: float


@dataclass(frozen=True)
class NodeUtilization:
    """One node's resource usage over an interval."""

    rank: int
    cpu_fraction: float
    copy_bytes: float
    dma_bytes: float
    interrupts: int
    irq_entries: int


def link_utilization(cluster: "MeshCluster",
                     elapsed_us: float) -> List[LinkUtilization]:
    """Per-link payload utilization relative to the sustained rate: the
    analytic model's ``1/G`` for the cluster's calibration."""
    rate = 1.0 / mesh_loggp(cluster.host_params, cluster.gige_params).G
    out = []
    for link in cluster.links:
        fwd, rev = link.stats["bytes"]
        out.append(LinkUtilization(
            name=link.name,
            bytes_forward=fwd,
            bytes_reverse=rev,
            utilization_forward=fwd / (rate * elapsed_us),
            utilization_reverse=rev / (rate * elapsed_us),
        ))
    return out


def node_utilization(cluster: "MeshCluster",
                     elapsed_us: float) -> List[NodeUtilization]:
    """Per-node CPU/memory/interrupt accounting."""
    out = []
    for node in cluster.nodes:
        host = node.host
        interrupts = sum(
            port.stats["interrupts"] for port in node.ports.values()
        )
        out.append(NodeUtilization(
            rank=node.rank,
            cpu_fraction=host.stats["cpu_us"] / elapsed_us,
            copy_bytes=host.stats["copy_bytes"],
            dma_bytes=host.stats["dma_bytes"],
            interrupts=interrupts,
            irq_entries=host.irq.stats["entries"],
        ))
    return out


def _bar(fraction: float, width: int = 30) -> str:
    filled = max(0, min(width, round(fraction * width)))
    return "#" * filled + "." * (width - filled)


def utilization_report(cluster: "MeshCluster", elapsed_us: float,
                       top: Optional[int] = 10) -> str:
    """Human-readable utilization summary (busiest items first)."""
    out = io.StringIO()
    out.write(f"utilization over {elapsed_us:.1f} us\n")
    out.write("\nlinks (payload fraction of the sustained rate 1/G per "
              "direction):\n")
    links = sorted(
        link_utilization(cluster, elapsed_us),
        key=lambda l: -(l.utilization_forward + l.utilization_reverse),
    )
    for link in links[:top]:
        out.write(
            f"  {link.name:26s} "
            f"fwd {_bar(link.utilization_forward)} "
            f"{100 * link.utilization_forward:5.1f}%  "
            f"rev {100 * link.utilization_reverse:5.1f}%\n"
        )
    out.write("\nnodes:\n")
    nodes = sorted(node_utilization(cluster, elapsed_us),
                   key=lambda n: -n.cpu_fraction)
    for node in nodes[:top]:
        out.write(
            f"  rank {node.rank:4d}  cpu {_bar(node.cpu_fraction)} "
            f"{100 * node.cpu_fraction:5.1f}%  "
            f"irqs {node.interrupts:6d} "
            f"(entries {node.irq_entries:6d})  "
            f"copies {node.copy_bytes / 1e6:8.2f} MB\n"
        )
    return out.getvalue()
