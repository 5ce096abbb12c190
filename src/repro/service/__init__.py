"""Simulation-as-a-service: a fault-tolerant asyncio front-end.

The ROADMAP's production-traffic direction: many concurrent clients
submit experiment requests (bench figures, point workloads, chaos
campaigns, traced runs) over a local JSON-lines socket protocol; a
router dispatches them to a supervised fleet of worker *processes*
running the deterministic engine, and results land in a
content-addressed cache keyed on the canonical hash of
``(params, topology, workload, seed, code version)`` so repeated
requests are free.

Robustness contract (see ``docs/SERVICE.md``):

* per-request deadlines; timeout => retry with exponential backoff on
  a fresh worker, bounded budget, then a *structured* error — never a
  hang;
* worker supervision detects crashes (pipe EOF / exit code) and hangs
  (lost heartbeat wall-clock watchdog) and restarts workers; the cache
  plus single-flight request coalescing give exactly-once results;
* admission control: a bounded pending set, load shedding with a
  retriable "overloaded" response, graceful drain on shutdown.

``python -m repro.service`` serves; ``--chaos`` runs the seeded
service-level chaos harness; ``--load-test N`` runs the concurrent
client load test and prints its report.
"""

from repro._lazy import lazy_exports

#: Public name -> submodule that defines it.  Resolved on first access
#: (PEP 562), so a fleet worker -- whose closure is ``worker`` +
#: ``jobs`` + the engine -- never loads the asyncio front-end.
_EXPORTS = {
    "Fleet": "fleet",
    "JobSpec": "protocol",
    "ResultCache": "cache",
    "Router": "router",
    "RouterConfig": "router",
    "ServiceClient": "server",
    "ServiceServer": "server",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
