"""Analysis helpers: LogGP characterization, statistics, utilization."""

from repro._lazy import lazy_exports

#: Public name -> submodule, resolved on first access: the timeline
#: report loads neither numpy (``stats``) nor the VIA micro-benchmarks
#: (``logp``).
_EXPORTS = {
    "LogGPParams": "logp",
    "measure_via_loggp": "logp",
    "geometric_mean": "stats",
    "linear_fit": "stats",
    "percentile": "stats",
    "link_utilization": "timeline",
    "node_utilization": "timeline",
    "utilization_report": "timeline",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
