"""Seeded chaos campaigns: node crashes under live MPI traffic.

``python -m repro.bench chaos --fault-seed S`` runs two campaigns per
scenario (one with ``--quick``), campaign ``i`` on scenario ``i`` of
the sorted rotation.  Each campaign derives a per-campaign seed from
``S`` (CRC32 mixing, so campaign ``i`` of seed ``S`` is reproducible in
isolation), picks a victim rank and a crash instant, and runs a
resilient SPMD program — the canonical ULFM recovery pattern — over
one of the traffic scenarios below while the victim fail-stops
mid-flight:

========== ===========================================================
scenario   traffic while the crash lands
========== ===========================================================
pt2pt      neighbor ping-pong rounds (eager and rendezvous sizes)
bcast      repeated whole-world broadcasts
allreduce  repeated global combines (the paper's dimensional exchange)
scatter    one-to-all personalized scatters (``opt`` scheduler)
allgather  all-to-all collection rounds
lqcd-cg    a CG-solver communication skeleton: halo exchanges with the
           six torus neighbors plus one global combine per iteration
nic-       NIC-resident collectives (``nic`` tier): allreduce rounds
collective with periodic broadcasts and barriers running entirely in
           the NIC firmware state machine
checkpoint a PDES crash-resume drill: kill one shard at a CRC32-seeded
-resume    window, recover from the window-boundary checkpoint log by
           replay, and assert the resumed output is bit-identical to
           an unperturbed reference run (see :mod:`repro.ckpt`)
========== ===========================================================

Every campaign asserts the full fault-tolerance contract:

* **no hang** — every rank's process finishes within the simulation
  limit (the watchdog would raise :class:`~repro.errors.HangError`
  first, with diagnostics);
* **failure visibility** — if the crash landed, the victim observes
  its own death and every survivor either finished its workload before
  the failure reached it or caught
  :class:`~repro.errors.MpiProcFailed` /
  :class:`~repro.errors.MpiRevoked` / :class:`~repro.errors.ViaError`;
* **shrink and continue** — the survivors revoke, agree, shrink to an
  identical survivor communicator, and complete a verification
  collective on it;
* **survivor exactly-once** — the post-shrink allreduce of ``1`` from
  every survivor must equal the shrunken size: each survivor counted
  exactly once, the dead rank zero times;
* **determinism** — the campaign is run twice and the full processed-
  event traces ``(time, name, kind)`` must be bit-identical.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.harness import ExperimentResult
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.errors import (
    BenchmarkError,
    MessagingError,
    MpiError,
    ViaError,
)
from repro.hw.faults import NodeFaultSpec
from repro.obs.monitor import Trace
from repro.topology.torus import Direction

#: Machine used by every campaign (the paper's 2x2x2 mesh).
MACHINE = (2, 2, 2)
#: Simulated-time budget per campaign (us); exceeding it is a hang.
LIMIT_US = 500_000.0
#: Crash instants are drawn from this window (us) so they land inside
#: the workload (setup ends ~60us; workloads run well past 500us).
CRASH_WINDOW = (80.0, 450.0)

_FAILURES = (MpiError, ViaError, MessagingError)


def _mix(seed: int, index: int, salt: str = "") -> int:
    """Deterministic per-campaign seed derivation."""
    return zlib.crc32(f"chaos:{seed}:{index}:{salt}".encode()) & 0x7FFFFFFF


def _rand(state: int) -> Tuple[int, int]:
    """One step of a tiny deterministic LCG (no ``random`` module so a
    campaign's draws can never be perturbed by library internals)."""
    state = (state * 1103515245 + 12345) & 0x7FFFFFFF
    return state, state >> 16


# -- traffic scenarios --------------------------------------------------------
def _wl_pt2pt(comm, rounds: int = 60):
    """Neighbor ping-pong: even ranks send first, odd ranks echo."""
    peer = comm.rank ^ 1
    for i in range(rounds):
        nbytes = 2048 if i % 3 else 32768  # mix eager and rendezvous
        if comm.rank % 2 == 0:
            yield from comm.isend(peer, i, nbytes).wait()
            yield from comm.irecv(peer, i, nbytes).wait()
        else:
            yield from comm.irecv(peer, i, nbytes).wait()
            yield from comm.isend(peer, i, nbytes).wait()


def _wl_bcast(comm, rounds: int = 25):
    for i in range(rounds):
        yield from comm.bcast(root=i % comm.size, nbytes=4096)


def _wl_allreduce(comm, rounds: int = 25):
    for _ in range(rounds):
        yield from comm.allreduce(nbytes=1024)


def _wl_scatter(comm, rounds: int = 25):
    for i in range(rounds):
        yield from comm.scatter(root=i % comm.size, nbytes=2048,
                                algorithm="opt")


def _wl_allgather(comm, rounds: int = 20):
    for _ in range(rounds):
        yield from comm.allgather(nbytes=1024)


def _wl_lqcd_cg(comm, iterations: int = 15):
    """The CG solver's per-iteration communication skeleton: six halo
    exchanges (one per torus direction) and one global combine."""
    torus = comm.torus
    halo_bytes = 4 * 4 * 4 * 24  # one 4^3 hypersurface of spinors
    for i in range(iterations):
        for axis in range(3):
            for sign in (+1, -1):
                dst = torus.neighbor(comm.rank, Direction(axis, sign))
                src = torus.neighbor(comm.rank, Direction(axis, -sign))
                send = comm.isend(dst, 100 * i + 10 * axis + (sign > 0),
                                  halo_bytes)
                recv = comm.irecv(src, 100 * i + 10 * axis + (sign > 0),
                                  halo_bytes)
                yield from send.wait()
                yield from recv.wait()
        yield from comm.allreduce(nbytes=8)  # residual norm


def _wl_nic_collective(comm, rounds: int = 40):
    """NIC-tier collectives under fire: the crash must surface through
    the NIC engine's fault path (dead-peer abort -> ULFM), not hang the
    firmware state machine."""
    comm.set_collective_tier("nic")
    try:
        for i in range(rounds):
            yield from comm.allreduce(nbytes=64,
                                      data=float(comm.rank + 1))
            if i % 5 == 0:
                yield from comm.bcast(root=i % comm.size, nbytes=256)
            if i % 7 == 0:
                yield from comm.barrier()
    finally:
        # The post-crash recovery collectives (agree/shrink/verify) run
        # on the shrunken communicator, which is host-tier by
        # construction — but reset this comm too for symmetry.
        comm.set_collective_tier("host")


_wl_nic_collective.needs_nic_engine = True

SCENARIOS: Dict[str, Callable] = {
    "pt2pt": _wl_pt2pt,
    "bcast": _wl_bcast,
    "allreduce": _wl_allreduce,
    "scatter": _wl_scatter,
    "allgather": _wl_allgather,
    "lqcd-cg": _wl_lqcd_cg,
    "nic-collective": _wl_nic_collective,
}

#: The shard-crash/resume drill (no node faults; PDES runs are
#: fault-free by construction, so it lives outside SCENARIOS).
CKPT_SCENARIO = "checkpoint-resume"

#: Campaign rotation: every traffic scenario plus the resume drill.
ALL_SCENARIOS = sorted(list(SCENARIOS) + [CKPT_SCENARIO])

#: Small fast sharded configs the resume drill draws from
#: (dims, nshards, workload); each completes in a few hundred windows.
_CKPT_CONFIGS = (
    ((2, 2, 2), 2, "collective"),
    ((4, 2, 2), 2, "aggregate"),
    ((3, 3), 3, "collective"),
    ((2, 2, 2), 2, "pingpong"),
)


# -- the resilient program ----------------------------------------------------
def _resilient(cluster, workload):
    """Wrap ``workload`` in the canonical ULFM recovery pattern.

    Both the failure path and the clean path converge on
    ``agree -> shrink -> verification allreduce`` so the agreement tree
    always spans every live rank (a rank that skipped ``agree`` would
    leave its tree peers waiting for a contribution).
    """

    def program(comm):
        sim = comm.engine.sim
        rank = comm.engine.rank
        failed_with: Optional[str] = None
        try:
            yield from workload(comm)
        except _FAILURES as exc:
            failed_with = type(exc).__name__
            if cluster.node_alive(rank):
                # Only survivors revoke: a dead process cannot reach
                # the out-of-band plane, and survivors must discover
                # the failure through the detector, not an oracle.
                comm.revoke()
        if not cluster.node_alive(rank):
            return {"verdict": "dead", "error": failed_with,
                    "time": sim.now}
        try:
            yield from comm.agree(failed_with is None)
            shrunk = yield from comm.shrink()
            # Survivor exactly-once: every member contributes 1 exactly
            # once; a ghost contribution (or a lost survivor) breaks
            # the sum.
            total = yield from shrunk.allreduce(nbytes=8, data=1)
            return {
                "verdict": "recovered" if failed_with else "clean",
                "error": failed_with,
                "size": shrunk.size,
                "ranks": tuple(shrunk.group.ranks()),
                "count": int(total),
                "time": sim.now,
            }
        except _FAILURES as exc:
            if not cluster.node_alive(rank):
                return {"verdict": "dead", "error": type(exc).__name__,
                        "time": sim.now}
            raise

    return program


# -- campaign driver ----------------------------------------------------------
@dataclass
class CampaignOutcome:
    """One campaign's parameters and measured results."""

    index: int
    scenario: str
    victim: int
    crash_at: float
    crash_landed: bool
    survivors: int
    finish_us: float
    trace_events: int
    deterministic: bool


def _run_once(scenario: str, victim: int, crash_at: float):
    """One traced execution; returns (results, trace, cluster)."""
    cluster = build_mesh(
        MACHINE, stack="via",
        node_faults=[NodeFaultSpec(rank=victim, crash_at=crash_at)],
    )
    cluster.sim.trace = Trace()
    comms = build_world(cluster)
    if getattr(SCENARIOS[scenario], "needs_nic_engine", False):
        for node in cluster.nodes:
            node.via.enable_nic_collectives()
    program = _resilient(cluster, SCENARIOS[scenario])
    results = run_mpi(cluster, program, comms=comms, limit=LIMIT_US)
    return results, cluster.sim.trace, cluster


def _run_checkpoint_resume(index: int, fault_seed: int) -> CampaignOutcome:
    """The ``checkpoint-resume`` drill: shard kill -> replay -> identity.

    Draws a sharded config, a victim shard, and a kill window from the
    campaign's CRC32-derived stream; runs an unperturbed reference,
    then the same run with the victim killed at the drawn window and
    recovered from the checkpoint log.  The recovered run must be
    bit-identical (table and per-rank results) and must have recovered
    exactly once; the determinism bit reruns the perturbed run.
    """
    from repro.pdes import CheckpointPolicy, run_sharded

    state = _mix(fault_seed, index, CKPT_SCENARIO)
    state, draw = _rand(state)
    dims, nshards, workload = _CKPT_CONFIGS[draw % len(_CKPT_CONFIGS)]
    reference = run_sharded(dims, workload=workload, nshards=nshards)
    state, draw = _rand(state)
    kill_window = draw % max(reference.windows, 1)
    state, draw = _rand(state)
    victim = draw % nshards
    label = (f"campaign {index} ({CKPT_SCENARIO}, shard {victim} "
             f"@ window {kill_window})")

    def perturbed_run():
        policy = CheckpointPolicy(every=16,
                                  chaos_kill=(victim, kill_window))
        return run_sharded(dims, workload=workload, nshards=nshards,
                           checkpoint=policy)

    perturbed = perturbed_run()
    if perturbed.recoveries != 1:
        raise BenchmarkError(
            f"{label}: expected exactly one shard recovery, got "
            f"{perturbed.recoveries}"
        )
    if repr(perturbed.table) != repr(reference.table) \
            or perturbed.per_rank != reference.per_rank \
            or perturbed.events_processed != reference.events_processed:
        raise BenchmarkError(
            f"{label}: resumed output differs from the unperturbed "
            f"reference"
        )
    second = perturbed_run()
    deterministic = (repr(second.table) == repr(perturbed.table)
                     and second.recoveries == 1
                     and second.windows == perturbed.windows)
    if not deterministic:
        raise BenchmarkError(f"{label}: differs across reruns")
    return CampaignOutcome(
        index=index, scenario=CKPT_SCENARIO, victim=victim,
        crash_at=float(kill_window), crash_landed=True,
        survivors=nshards, finish_us=round(perturbed.now, 1),
        trace_events=perturbed.events_processed,
        deterministic=deterministic,
    )


def run_campaign(index: int, fault_seed: int,
                 scenario: Optional[str] = None) -> CampaignOutcome:
    """Run (twice, for the determinism check) and verify one campaign."""
    scenario = scenario or ALL_SCENARIOS[index % len(ALL_SCENARIOS)]
    if scenario == CKPT_SCENARIO:
        return _run_checkpoint_resume(index, fault_seed)
    if scenario not in SCENARIOS:
        raise BenchmarkError(
            f"unknown chaos scenario {scenario!r}; choose from "
            f"{tuple(ALL_SCENARIOS)}"
        )
    state = _mix(fault_seed, index, scenario)
    size = MACHINE[0] * MACHINE[1] * MACHINE[2]
    state, draw = _rand(state)
    victim = 1 + draw % (size - 1)
    state, draw = _rand(state)
    lo, hi = CRASH_WINDOW
    crash_at = round(lo + (draw % 10_000) / 10_000.0 * (hi - lo), 1)

    results, trace, cluster = _run_once(scenario, victim, crash_at)
    label = f"campaign {index} ({scenario}, victim {victim} @ {crash_at}us)"

    # No hang: run_mpi returning at all (without HangError) proves every
    # rank finished; double-check nobody burned the whole budget.
    finish = cluster.sim.now
    if finish >= LIMIT_US:
        raise BenchmarkError(f"{label}: ran to the simulation limit")

    crash_landed = not cluster.node_alive(victim)
    survivors = [r for r in results
                 if isinstance(r, dict) and r["verdict"] != "dead"]
    if crash_landed:
        if results[victim]["verdict"] != "dead":
            raise BenchmarkError(
                f"{label}: victim finished as {results[victim]!r}"
            )
        expected = tuple(r for r in range(size) if r != victim)
        for res in survivors:
            if res["size"] != size - 1 or res["ranks"] != expected:
                raise BenchmarkError(
                    f"{label}: bad shrunken world {res!r}"
                )
            if res["count"] != size - 1:
                raise BenchmarkError(
                    f"{label}: exactly-once violated ({res['count']} "
                    f"contributions from {size - 1} survivors)"
                )
        if len(survivors) != size - 1:
            raise BenchmarkError(
                f"{label}: {len(survivors)} survivors of {size - 1}"
            )
    else:
        # Crash scheduled after everyone finished: all ranks clean.
        for res in results:
            if res["verdict"] == "dead":
                raise BenchmarkError(f"{label}: spurious death {res!r}")

    # Determinism: an identical second run must produce a bit-identical
    # event trace (times, names, kinds) and identical verdicts.
    results2, trace2, _cluster2 = _run_once(scenario, victim, crash_at)
    key = [(r.time, r.name, r.kind) for r in trace.records]
    key2 = [(r.time, r.name, r.kind) for r in trace2.records]
    deterministic = key == key2 and results == results2
    if not deterministic:
        raise BenchmarkError(f"{label}: trace differs across reruns")

    return CampaignOutcome(
        index=index, scenario=scenario, victim=victim, crash_at=crash_at,
        crash_landed=crash_landed, survivors=len(survivors),
        finish_us=round(finish, 1), trace_events=len(trace.records),
        deterministic=deterministic,
    )


def campaign_row(outcome: CampaignOutcome) -> List[Any]:
    """One summary-table row (the unit the service checkpoints)."""
    return [
        outcome.index, outcome.scenario, outcome.victim,
        outcome.crash_at,
        "crash" if outcome.crash_landed else "late",
        outcome.survivors, outcome.finish_us, outcome.trace_events,
        "yes" if outcome.deterministic else "NO",
    ]


def chaos_summary(rows: List[List[Any]],
                  fault_seed: int) -> ExperimentResult:
    """Assemble the summary table from per-campaign rows.

    Split out of :func:`run_chaos` so the service's resumable chaos
    jobs (:mod:`repro.ckpt.campaign`) can build a payload from a mix
    of freshly computed and checkpoint-loaded rows and still produce a
    bit-identical result.
    """
    landed = sum(1 for row in rows if row[4] == "crash")
    return ExperimentResult(
        experiment="chaos",
        title=f"Chaos campaigns (seed {fault_seed}): node crashes "
              f"under load",
        columns=["campaign", "scenario", "victim", "crash_at_us",
                 "fault", "survivors", "finish_us", "events",
                 "deterministic"],
        rows=rows,
        notes=[
            f"{len(rows)} campaigns, {landed} crashes landed; every "
            f"run finished (no hangs), survivors shrank and completed "
            f"an exactly-once verification collective, and each "
            f"campaign's event trace was bit-identical across reruns.",
        ],
    )


def run_chaos(quick: bool = False, fault_seed: int = 0) -> ExperimentResult:
    """The ``chaos`` study: every scenario of :data:`ALL_SCENARIOS`,
    once with ``quick`` and twice without, in one summary table."""
    campaigns = (1 if quick else 2) * len(ALL_SCENARIOS)
    rows = [campaign_row(run_campaign(index, fault_seed))
            for index in range(campaigns)]
    return chaos_summary(rows, fault_seed)
