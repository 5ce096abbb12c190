"""Service-level chaos: SIGKILL/SIGSTOP workers under live requests.

``python -m repro.service --chaos`` (and ``tests/test_service_chaos``)
drive a seeded campaign against a real fleet:

1. build a request mix (figures, traces, breakdowns, point workloads,
   a lossy seeded point run, duplicates for coalescing, plus malformed
   specs that must fail *structurally*);
2. compute unperturbed reference payloads in-process through the same
   pure :func:`repro.service.jobs.execute` code path the workers use;
3. derive a deterministic fault plan from the seed (CRC32 mixing, the
   same idiom as the engine-level chaos in ``bench/chaos.py``): some
   request keys get their first dispatch's worker SIGKILLed after a
   seeded delay, some SIGSTOPped (the supervisor must detect the lost
   heartbeat and kill);
4. submit everything concurrently and verify the service contract:
   **every accepted request terminates** (a global wall-clock budget
   guards the harness itself), every ``ok`` result is **bit-identical**
   to its unperturbed reference, and every non-ok outcome is a
   **structured** error with the expected retriability.

:func:`chaos_campaign` runs the whole thing twice with the same seed
and checks the outcome map (status + payload hash per request) is
identical across reruns — the service-layer determinism check.
"""

from __future__ import annotations

import asyncio
import signal
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.canonical import content_hash, stable_json
from repro.service.cache import ResultCache
from repro.service.fleet import Fleet
from repro.service.jobs import execute
from repro.service.protocol import JobSpec, ServiceError
from repro.service.router import Router, RouterConfig

#: Overall harness budget (s): nothing may outlive this.
CAMPAIGN_BUDGET_S = 300.0


class ChaosContractViolation(ServiceError):
    """The service broke its fault-tolerance contract under chaos."""


def _mix(seed: int, index: int, salt: str = "") -> int:
    return zlib.crc32(f"service-chaos:{seed}:{index}:{salt}".encode()) \
        & 0x7FFFFFFF


def _spec_pool() -> List[JobSpec]:
    """Distinct, deterministic jobs long enough for kills to land
    mid-run (figures/traces) mixed with fast point workloads."""
    return [
        JobSpec.make("figure", "fig5", quick=True),
        JobSpec.make("figure", "fig2", quick=True),
        JobSpec.make("figure", "routing", quick=True),
        JobSpec.make("trace", quick=True),
        JobSpec.make("breakdown", quick=True),
        JobSpec.make("point", "via_latency", nbytes=4, repeats=25),
        JobSpec.make("point", "via_latency", nbytes=1024, hops=2),
        JobSpec.make("point", "tcp_latency", nbytes=256),
        JobSpec.make("point", "via_pingpong_bandwidth", nbytes=16384),
        JobSpec.make("point", "via_latency", nbytes=4, loss=0.01,
                     seed=7),
        # Checkpointing workloads: a kill mid-run leaves window/item
        # snapshots a retry resumes from (crash-resume coverage).
        JobSpec.make("pdes", "aggregate", dims="2x2x2", nshards=2,
                     ckpt_every=8),
        JobSpec.make("chaos", campaigns=2, seed=3),
    ]


def plan_campaign(seed: int, requests: int
                  ) -> Tuple[List[JobSpec], Dict[str, Tuple[str, float]]]:
    """The request list and the per-key fault plan for ``seed``.

    Returns ``(specs, faults)`` where ``faults`` maps a job's cache
    key to ``(fault, delay_s)`` with fault in ``{"kill", "stall"}``;
    only the *first* dispatch of a key is targeted, so the bounded
    retry budget always suffices.
    """
    pool = _spec_pool()
    specs = [pool[i % len(pool)] for i in range(requests)]
    faults: Dict[str, Tuple[str, float]] = {}
    for i, spec in enumerate(specs):
        key = spec.cache_key()
        if key in faults:
            continue
        draw = _mix(seed, i, "fault") % 100
        if draw < 40:
            fault = "kill"
        elif draw < 65:
            fault = "stall"
        else:
            continue
        delay_s = 0.05 + (_mix(seed, i, "delay") % 1000) / 1000.0 * 0.45
        faults[key] = (fault, round(delay_s, 3))
    return specs, faults


def reference_payloads(specs: List[JobSpec]) -> Dict[str, str]:
    """Unperturbed reference results, frozen text per cache key.

    Runs in-process through the exact worker code path; the engine's
    determinism makes these the ground truth every chaos-era result
    must match bit-for-bit.
    """
    references: Dict[str, str] = {}
    for spec in specs:
        key = spec.cache_key()
        if key not in references:
            references[key] = stable_json(execute(spec))
    return references


async def run_service_chaos(seed: int = 0, requests: int = 12,
                            workers: int = 3,
                            references: Optional[Dict[str, str]] = None,
                            ) -> Dict[str, Any]:
    """One chaos run; returns the verdict report (raises on contract
    violation)."""
    specs, fault_plan = plan_campaign(seed, requests)
    if references is None:
        references = reference_payloads(specs)
    pending_faults = dict(fault_plan)
    injected = {"kill": 0, "stall": 0}
    chaos_tasks = set()

    def on_dispatch(fleet: Fleet, handle, spec: JobSpec) -> None:
        fault = pending_faults.pop(spec.cache_key(), None)
        if fault is None:
            return
        kind, delay_s = fault

        async def strike() -> None:
            await asyncio.sleep(delay_s)
            if handle.state == "dead" or not fleet._running:
                return
            injected[kind] += 1
            signum = signal.SIGKILL if kind == "kill" else signal.SIGSTOP
            fleet._signal(handle, signum)

        task = asyncio.get_running_loop().create_task(strike())
        chaos_tasks.add(task)
        task.add_done_callback(chaos_tasks.discard)

    fleet = Fleet(workers, heartbeat_interval=0.05, hang_timeout=1.5,
                  on_dispatch=on_dispatch)
    router = Router(fleet, ResultCache(), RouterConfig(
        max_pending=requests + 4, max_attempts=4,
        backoff_base_s=0.05, deadline_s=60.0))
    await fleet.start()
    try:
        submits = [
            router.submit({"id": f"r{i}", "job": spec.to_wire()})
            for i, spec in enumerate(specs)
        ]
        # Malformed requests must produce structured errors, chaos or no.
        submits.append(router.submit({
            "id": "bad-op",
            "job": {"kind": "point", "name": "no_such_op"},
        }))
        submits.append(router.submit({
            "id": "bad-kind", "job": {"kind": "warp-drive"},
        }))
        responses = await asyncio.wait_for(
            asyncio.gather(*submits), CAMPAIGN_BUDGET_S)
    finally:
        for task in list(chaos_tasks):
            task.cancel()
        await fleet.stop()

    # -- verify the contract ------------------------------------------------
    verdicts: Dict[str, Dict[str, Any]] = {}
    for i, (spec, response) in enumerate(zip(specs, responses)):
        key = spec.cache_key()
        label = f"request r{i} ({spec.label()})"
        if response["status"] == "ok":
            text = stable_json(response["result"])
            if text != references[key]:
                raise ChaosContractViolation(
                    f"{label}: result differs from the unperturbed "
                    f"reference run"
                )
            outcome = {"status": "ok", "hash": content_hash(text)}
        elif response["status"] == "error":
            if not response.get("retriable"):
                raise ChaosContractViolation(
                    f"{label}: non-retriable error under chaos: "
                    f"{response!r}"
                )
            outcome = {"status": "retriable-error",
                       "error": response["error"]}
        else:
            raise ChaosContractViolation(
                f"{label}: unexpected response {response!r}"
            )
        entry = verdicts.setdefault(key[:16], outcome)
        if entry != outcome:
            raise ChaosContractViolation(
                f"{label}: same key resolved differently within one "
                f"run: {entry!r} vs {outcome!r}"
            )
    for rid, response in zip(("bad-op", "bad-kind"), responses[-2:]):
        if response["status"] != "error" or response.get("retriable"):
            raise ChaosContractViolation(
                f"malformed request {rid} got {response!r} instead of "
                f"a structured non-retriable error"
            )
        verdicts[rid] = {"status": "structured-error",
                         "error": response["error"]}
    return {
        "seed": seed,
        "requests": requests,
        "workers": workers,
        "distinct_keys": len(references),
        "faults_planned": {k[:16]: v for k, v in fault_plan.items()},
        "faults_injected": dict(injected),
        "fleet": dict(fleet.counters),
        "router": dict(router.counters),
        "verdicts": verdicts,
        "ok": sum(1 for v in verdicts.values()
                  if v["status"] == "ok"),
    }


def chaos_campaign(seed: int = 0, requests: int = 12, workers: int = 3,
                   runs: int = 2) -> Dict[str, Any]:
    """Run the campaign ``runs`` times with one seed and require
    identical outcome maps (the service-determinism check).  Returns
    the combined report; raises :class:`ChaosContractViolation` on any
    violation."""
    specs, _ = plan_campaign(seed, requests)
    references = reference_payloads(specs)
    reports = [
        asyncio.run(run_service_chaos(seed, requests, workers,
                                      references=references))
        for _ in range(runs)
    ]
    first = reports[0]["verdicts"]
    for rerun, report in enumerate(reports[1:], start=2):
        if report["verdicts"] != first:
            raise ChaosContractViolation(
                f"chaos rerun {rerun} produced different outcomes for "
                f"seed {seed}: {first!r} vs {report['verdicts']!r}"
            )
    combined = dict(reports[0])
    combined["runs"] = runs
    combined["deterministic"] = True
    combined["faults_injected_per_run"] = [
        r["faults_injected"] for r in reports
    ]
    return combined


def render_report(report: Dict[str, Any]) -> str:
    """Human summary of a :func:`chaos_campaign` report."""
    lines = [
        f"service chaos: seed={report['seed']} "
        f"requests={report['requests']} workers={report['workers']} "
        f"runs={report.get('runs', 1)}",
        f"  outcomes: {report['ok']} ok / "
        f"{len(report['verdicts'])} distinct "
        f"(all bit-identical to unperturbed references)",
        f"  faults planned: {len(report['faults_planned'])} "
        f"({report['faults_injected']} landed in run 1)",
        f"  fleet: {report['fleet']}",
        f"  deterministic across reruns: "
        f"{report.get('deterministic', 'n/a')}",
    ]
    return "\n".join(lines) + "\n"


__all__ = [
    "CAMPAIGN_BUDGET_S",
    "ChaosContractViolation",
    "chaos_campaign",
    "plan_campaign",
    "reference_payloads",
    "render_report",
    "run_service_chaos",
]
