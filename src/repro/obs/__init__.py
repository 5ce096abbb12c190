"""Observability: message-lifecycle flight recorder and exporters.

``FlightRecorder`` assigns every message a trace id at its QMP/MPI/VIA
entry point and collects lifecycle spans (api-call, descriptor-queued,
dma, wire-hop, switch-forward, irq-wait, completion plus reliability
events).  Attach one to a simulator via
:meth:`repro.cluster.builder.MeshCluster.observability` and export
with :mod:`repro.obs.export`.

The instruments a caller attaches to a run live here too, in
:mod:`repro.obs.monitor`: the per-event trace, the sample accumulators
and the fault campaign's reliability counters and hang watchdog; the
post-run utilization report in :mod:`repro.obs.timeline`.
"""

from repro._lazy import lazy_exports

# Span kinds (the lifecycle stages of a message).  The hardware, VIA
# and messaging layers name them at every instrumentation site, so they
# live here: an untraced run compiles nothing else of this package.
MESSAGE = "message"              # root span: one per trace id
API_CALL = "api-call"            # host CPU inside send/recv API calls
DESC_QUEUED = "descriptor-queued"  # instant: descriptor handed to NIC
DMA = "dma"                      # descriptor/payload fetch over PCI-X
WIRE_HOP = "wire-hop"            # serialization + propagation on a link
SWITCH_FORWARD = "switch-forward"  # store-and-forward relay at a hop
IRQ_WAIT = "irq-wait"            # rx DMA done -> IRQ handler entry
COMPLETION = "completion"        # instant: descriptor completed/failed
# NIC-resident collective stages (the host-side terms they replace —
# api-call syscalls, irq-wait per hop — simply do not occur).
NIC_FORWARD = "nic-forward"      # NIC firmware tx of a collective frame
NIC_COMBINE = "nic-combine"      # NIC firmware reduce/combine step

# Reliability event kinds (instants).
RETRANSMIT = "retransmit"
ACK = "ack"
TIMEOUT = "timeout"
DROP = "drop"

SPAN_KINDS = (
    MESSAGE, API_CALL, DESC_QUEUED, DMA, WIRE_HOP, SWITCH_FORWARD,
    IRQ_WAIT, COMPLETION, NIC_FORWARD, NIC_COMBINE, RETRANSMIT, ACK,
    TIMEOUT, DROP,
)

#: Public name -> submodule, resolved on first access.
_EXPORTS = {
    "FlightRecorder": "recorder",
    "Span": "recorder",
    "TraceInfo": "recorder",
    "api_overhead_per_message": "export",
    "breakdown_probe": "export",
    "breakdown_table": "export",
    "validate_chrome_trace": "export",
    "RELIABILITY_COUNTERS": "monitor",
    "Watchdog": "monitor",
    "reliability_summary": "monitor",
    "Probe": "monitor",
    "SampleStats": "monitor",
    "Trace": "monitor",
    "TraceRecord": "monitor",
    "link_utilization": "timeline",
    "node_utilization": "timeline",
    "utilization_report": "timeline",
}

__all__ = sorted([
    *_EXPORTS, "MESSAGE", "API_CALL", "DESC_QUEUED", "DMA", "WIRE_HOP",
    "SWITCH_FORWARD", "IRQ_WAIT", "COMPLETION", "NIC_FORWARD",
    "NIC_COMBINE", "RETRANSMIT", "ACK", "TIMEOUT", "DROP", "SPAN_KINDS",
])
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
