"""Observability: message-lifecycle flight recorder and exporters.

``FlightRecorder`` assigns every message a trace id at its QMP/MPI/VIA
entry point and collects lifecycle spans (api-call, descriptor-queued,
dma, wire-hop, switch-forward, irq-wait, completion plus reliability
events) together with fixed-interval metrics timelines.  Attach one to
a simulator via :meth:`repro.cluster.builder.MeshCluster.observability`
and export with :mod:`repro.obs.export`.

The instruments a caller attaches to a run live here too, in
:mod:`repro.obs.monitor`: the per-event trace, the sample accumulators
and the fault campaign's reliability counters and hang watchdog.
"""

from repro._lazy import lazy_exports

#: Public name -> submodule, resolved on first access.  The hardware
#: and VIA layers import :mod:`~repro.obs.recorder` for its span kinds;
#: an untraced run loads nothing else of this package.
_EXPORTS = {
    "API_CALL": "recorder",
    "ACK": "recorder",
    "COMPLETION": "recorder",
    "DESC_QUEUED": "recorder",
    "DMA": "recorder",
    "DROP": "recorder",
    "IRQ_WAIT": "recorder",
    "MESSAGE": "recorder",
    "RETRANSMIT": "recorder",
    "SPAN_KINDS": "recorder",
    "SWITCH_FORWARD": "recorder",
    "TIMEOUT": "recorder",
    "WIRE_HOP": "recorder",
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
    "MetricsTimeline": "monitor",
    "Probe": "monitor",
    "SampleStats": "monitor",
    "Trace": "monitor",
    "TraceRecord": "monitor",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
