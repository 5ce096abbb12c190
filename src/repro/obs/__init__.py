"""Observability: message-lifecycle flight recorder and exporters.

``FlightRecorder`` assigns every message a trace id at its QMP/MPI/VIA
entry point and collects lifecycle spans (api-call, descriptor-queued,
dma, wire-hop, switch-forward, irq-wait, completion plus reliability
events) together with fixed-interval metrics timelines.  Attach one to
a simulator via :meth:`repro.cluster.builder.MeshCluster.observability`
and export with :mod:`repro.obs.export`.
"""

from repro.obs.recorder import (
    API_CALL,
    ACK,
    COMPLETION,
    DESC_QUEUED,
    DMA,
    DROP,
    IRQ_WAIT,
    MESSAGE,
    RETRANSMIT,
    SPAN_KINDS,
    SWITCH_FORWARD,
    TIMEOUT,
    WIRE_HOP,
    FlightRecorder,
    MetricsTimeline,
    Span,
    TraceInfo,
)
from repro.obs.export import (
    api_overhead_per_message,
    breakdown_probe,
    breakdown_table,
    validate_chrome_trace,
)

__all__ = [
    "API_CALL",
    "ACK",
    "COMPLETION",
    "DESC_QUEUED",
    "DMA",
    "DROP",
    "IRQ_WAIT",
    "MESSAGE",
    "RETRANSMIT",
    "SPAN_KINDS",
    "SWITCH_FORWARD",
    "TIMEOUT",
    "WIRE_HOP",
    "FlightRecorder",
    "MetricsTimeline",
    "Span",
    "TraceInfo",
    "api_overhead_per_message",
    "breakdown_probe",
    "breakdown_table",
    "validate_chrome_trace",
]
