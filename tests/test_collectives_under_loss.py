"""Collectives over the reliable VIA layer on a lossy 8-node torus.

The MPI collectives run over the messaging core, which runs over VIA
channels — so the reliable layer underneath must make every collective
produce *bit-identical* results at 1% frame loss, merely slower.  Also
pins the determinism guarantee: one fault seed, one event trace.
"""

import operator

import numpy as np
import pytest

from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.hw.faults import FaultParams, NodeFaultSpec
from repro.hw.params import GigEParams, ViaParams
from repro.obs.monitor import Trace
from repro.sim import Simulator

DIMS = (2, 2, 2)  # the 8-node torus of the paper's small testbed
LOSS = 0.01


def _lossy_params(seed, loss=LOSS):
    return GigEParams(faults=FaultParams(seed=seed, loss_rate=loss))


def _build(seed=None, trace=None, loss=LOSS, **mesh):
    sim = Simulator(trace=trace) if trace is not None else None
    gige = _lossy_params(seed, loss) if seed is not None else None
    return build_mesh(DIMS, gige_params=gige, sim=sim, **mesh)


def _collective_program(comm, results):
    """Every rank: broadcast, global sum, OPT scatter, allgather."""
    rank = comm.rank
    out = {}
    out["bcast"] = yield from comm.bcast(
        root=0, nbytes=2048, data=("payload", tuple(range(32))),
    )
    out["sum"] = yield from comm.allreduce(
        nbytes=8, data=np.float64(rank + 1),
    )
    scatter_data = (
        [("slice", i, i * 7) for i in range(comm.size)]
        if rank == 0 else None
    )
    out["scatter"] = yield from comm.scatter(
        root=0, nbytes=4096, data=scatter_data, algorithm="opt",
    )
    out["allgather"] = yield from comm.allgather(
        nbytes=512, data=("from", rank),
    )
    results[rank] = out


def _run_all(seed=None, trace=None):
    cluster = _build(seed=seed, trace=trace)
    results = [None] * cluster.size
    run_mpi(cluster, _collective_program, args=(results,))
    return cluster, results


@pytest.fixture(scope="module")
def lossless_results():
    _cluster, results = _run_all(seed=None)
    return results


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_collectives_bit_identical_under_loss(seed, lossless_results):
    cluster, results = _run_all(seed=seed)
    # Real losses occurred...
    dropped = sum(sum(link.stats["dropped"]) for link in cluster.links)
    assert dropped > 0, "1% loss injected nothing; test is vacuous"
    # ...and recovery was invisible to the application: every rank's
    # result of every collective is bit-identical to the lossless run.
    for rank in range(cluster.size):
        lossy, clean = results[rank], lossless_results[rank]
        assert repr(lossy) == repr(clean)
        # The global sum specifically (fig5's collective) stays the
        # exact IEEE-754 sum 1+2+...+8.
        assert lossy["sum"] == np.float64(36.0)
        assert repr(lossy["sum"]) == repr(clean["sum"])


def test_recovery_counters_visible():
    # Loss heavy enough that DATA frames are certainly among the
    # casualties (1% on this short workload can hit only ACKs).
    cluster = build_mesh(
        DIMS, gige_params=GigEParams(
            faults=FaultParams(seed=11, loss_rate=0.05)
        ),
    )
    results = [None] * cluster.size
    run_mpi(cluster, _collective_program, args=(results,))
    totals = cluster.reliability_stats()
    # The monitor counters expose the recovery work that happened.
    assert totals["retransmits"] > 0
    assert totals["timeouts"] > 0
    assert totals["acks_sent"] > 0
    assert totals["frames_dropped"] > 0
    from repro.obs.monitor import reliability_summary

    summary = reliability_summary(totals)
    assert "retransmits=" in summary and "timeouts=" in summary


def test_same_seed_identical_event_trace():
    """Acceptance: same fault seed => identical event trace (names and
    timestamps), run to run."""

    def traced_run():
        trace = Trace()
        cluster, results = _run_all(seed=777, trace=trace)
        return (
            [(r.time, r.name, r.kind) for r in trace.records],
            repr(results),
            cluster.reliability_stats(),
        )

    first = traced_run()
    second = traced_run()
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert first[0] == second[0]


# -- the offload tiers under loss --------------------------------------------

#: Frame-loss rates of the offload grids.
LOSS_GRID = (0.001, 0.01, 0.05)
SEEDS = (101, 202, 303)
OFFLOAD_TIERS = ("nic", "kernel")


def _offload_program(comm, results, tier):
    """Offload-tier allreduce/bcast/barrier rounds (exact float64)."""
    comm.set_collective_tier(tier)
    rank = comm.rank
    out = {}
    for i in range(60):
        out[f"sum{i}"] = yield from comm.allreduce(
            nbytes=64, data=np.float64(rank + i + 1))
    out["bcast"] = yield from comm.bcast(
        root=0, nbytes=256,
        data=("nic", tuple(range(8))) if rank == 0 else None)
    yield from comm.barrier()
    results[rank] = out


#: Roots of the direct rounds: neither is the tree root 0, and the
#: reduce root has relays below it.
BCAST_ROOT, REDUCE_ROOT = 3, 5


def _direct_program(comm, results, tier):
    """20 rounds of the engine's own ``bcast`` and ``reduce`` modes."""
    engine = comm.engine.device.collective
    rank = comm.rank
    out = []
    for i in range(20):
        out.append((yield from engine.collective(
            "bcast", BCAST_ROOT, ("b", i) if rank == BCAST_ROOT else None,
            None, 256)))
        out.append((yield from engine.collective(
            "reduce", REDUCE_ROOT, np.float64(rank + i + 0.1),
            operator.add, 64)))
    results[rank] = out


def _run_offload(tier, seed=None, loss=LOSS, program=_offload_program,
                 **mesh):
    cluster = _build(seed=seed, loss=loss, **mesh)
    comms = build_world(cluster)
    engines = [getattr(node.via, f"enable_{tier}_collectives")()
               for node in cluster.nodes]
    results = [None] * cluster.size
    run_mpi(cluster, program, args=(results, tier), comms=comms)
    return cluster, results, engines


@pytest.fixture(scope="module")
def offload_lossless_results():
    return {(tier, program): _run_offload(tier, program=program)[1]
            for tier in OFFLOAD_TIERS
            for program in (_offload_program, _direct_program)}


def _lost_and_asked(engines):
    """Collective frames lost on the wire (sent less arrived: every
    tree edge of a 2x2x2 torus is one hop), and how often a waiter
    asked again (a resent reduce frame or a request)."""
    stats = [engine.stats for engine in engines]
    sent = sum(s["forwards"] + s["retransmits"] + s["requests"]
               + s["held_answers"] for s in stats)
    lost = sent - sum(s["frames"] for s in stats)
    asked = sum(s["retransmits"] + s["requests"] for s in stats)
    return lost, asked


def _grid(old_ids=False):
    """(tier, loss, seed) rows.  With ``old_ids`` the 1 % rows keep the
    ids they had before the loss rate was a parameter (the NIC ones
    also from before the tier was)."""
    def row_id(tier, loss, seed):
        parts = ([] if tier == "nic" else [tier]) + (
            [] if loss == LOSS and old_ids else [str(loss)])
        return "-".join(parts + [str(seed)])
    return pytest.mark.parametrize("tier,loss,seed", [
        pytest.param(tier, loss, seed, id=row_id(tier, loss, seed))
        for tier in OFFLOAD_TIERS for loss in LOSS_GRID for seed in SEEDS
    ])


@_grid(old_ids=True)
def test_nic_collectives_bit_identical_under_loss(tier, loss, seed,
                                                  offload_lossless_results):
    """The state machine's recovery per operation makes 0.1 %, 1 % and
    5 % loss invisible at either site: every rank's results are
    bit-identical to the lossless run."""
    cluster, results, engines = _run_offload(tier, seed=seed, loss=loss)
    if loss >= LOSS:
        dropped = sum(sum(link.stats["dropped"]) for link in cluster.links)
        assert dropped > 0, "loss injected nothing; test is vacuous"
    lost, asked = _lost_and_asked(engines)
    # A loss is only ever made good by a waiter asking again.
    assert asked or not lost
    lossless = offload_lossless_results[tier, _offload_program]
    for rank in range(cluster.size):
        assert repr(results[rank]) == repr(lossless[rank])
        assert results[rank]["sum0"] == np.float64(36.0)


@_grid()
def test_direct_bcast_reduce_bit_identical_under_loss(
        tier, loss, seed, offload_lossless_results):
    """The engine's native ``bcast`` (a waiter requests the wave from
    its parent) and ``reduce`` (the root requests its missing children,
    relays pass the request on) recover at both sites."""
    cluster, results, engines = _run_offload(
        tier, seed=seed, loss=loss, program=_direct_program)
    lost, asked = _lost_and_asked(engines)
    assert asked or not lost
    if loss == max(LOSS_GRID):
        assert lost > 0, "no collective frame lost; test is vacuous"
    assert repr(results) == repr(
        offload_lossless_results[tier, _direct_program])
    assert results[BCAST_ROOT][0] == ("b", 0)
    for rank in range(cluster.size):
        if rank != REDUCE_ROOT:
            assert results[rank][1] is None


def test_nic_arq_interops_with_kernel_gobackn():
    """NIC collectives and ordinary reliable VIA traffic share the
    lossy fabric: both recover, neither perturbs the other's result."""
    # 5% loss: heavy enough that this short mixed workload certainly
    # loses frames on both planes (1% can miss it entirely).
    cluster = build_mesh(DIMS, gige_params=GigEParams(
        faults=FaultParams(seed=42, loss_rate=0.05)))
    comms = build_world(cluster)
    for node in cluster.nodes:
        node.via.enable_nic_collectives()
    results = [None] * cluster.size

    def program(comm, results):
        rank = comm.rank
        peer = rank ^ 1
        out = {}
        # Per-VI reliable traffic (point-to-point)...
        for i in range(2):
            if rank % 2 == 0:
                yield from comm.isend(peer, i, 2048).wait()
                req = comm.irecv(peer, i, 2048)
                yield from req.wait()
            else:
                req = comm.irecv(peer, i, 2048)
                yield from req.wait()
                yield from comm.isend(peer, i, 2048).wait()
        # ...interleaved with NIC-tier collectives.
        comm.set_collective_tier("nic")
        out["sum"] = yield from comm.allreduce(
            nbytes=64, data=np.float64(rank + 1))
        yield from comm.barrier()
        results[rank] = out

    run_mpi(cluster, program, args=(results,), comms=comms)
    assert all(r["sum"] == np.float64(36.0) for r in results)
    # Both reliability planes did real recovery work on the shared
    # fabric.
    dropped = sum(sum(link.stats["dropped"]) for link in cluster.links)
    assert dropped > 0
    assert cluster.reliability_stats()["retransmits"] > 0
    nic_totals = {}
    for node in cluster.nodes:
        for key, value in node.via.collective.stats.items():
            nic_totals[key] = nic_totals.get(key, 0) + value
    assert nic_totals["retransmits"] + nic_totals["requests"] > 0


#: The rank that enters late, and by how much: past the retry budget
#: (about 39.3 ms with the default ``ViaParams``).
LATE, LATENESS = 5, 50_000.0


@pytest.mark.parametrize("detector", [False, True],
                         ids=["no-detector", "detector"])
@pytest.mark.parametrize("tier", OFFLOAD_TIERS)
def test_a_late_live_rank_is_not_suspected(tier, detector):
    """One rank enters an allreduce, and then a bcast it roots, 50 ms
    late.  The ranks that wait on it ask on; each ask reaches a live
    peer, whose held answer restarts the asker's timer with a fresh
    budget.  So nobody spends the budget: the right values, and with
    or without an armed failure detector, no death."""
    cluster = build_mesh(
        DIMS, via_params=ViaParams(reliable=True),
        node_faults=([NodeFaultSpec(rank=0, crash_at=1e9)]
                     if detector else None))
    comms = build_world(cluster)
    for node in cluster.nodes:
        getattr(node.via, f"enable_{tier}_collectives")()

    def program(comm):
        comm.set_collective_tier(tier)
        sim = comm.engine.sim
        if comm.rank == LATE:
            yield sim.timeout(LATENESS)
        total = yield from comm.allreduce(nbytes=8, data=float(comm.rank))
        if comm.rank == LATE:
            yield sim.timeout(LATENESS)
        word = yield from comm.bcast(
            root=LATE, nbytes=8, data="x" if comm.rank == LATE else None)
        return total, word

    assert run_mpi(cluster, program, comms=comms) == [(28.0, "x")] * 8
    assert cluster.death_log == []


RECOVERY_COUNTERS = ("requests", "held_answers", "retransmits",
                     "dropped_bad_checksum")


def test_nic_arq_stays_cold_without_loss():
    """On a lossless fabric neither site arms a timer, keeps a
    completed op or sends a request — default runs are identical to
    the machine without recovery."""
    for tier in OFFLOAD_TIERS:
        cluster, results, engines = _run_offload(tier)
        for engine in engines:
            assert not any(engine.stats[key] for key in RECOVERY_COUNTERS)
            assert not engine._timers and not engine._asked
            assert not engine._done and not engine._ops
        assert results[0]["sum0"] == np.float64(36.0)


@pytest.mark.parametrize("program", [_offload_program, _direct_program],
                         ids=["communicator", "direct"])
@pytest.mark.parametrize("tier", OFFLOAD_TIERS)
def test_reliable_lossless_sends_only_data_frames(tier, program,
                                                  offload_lossless_results):
    """Node faults armed (so the fabric is reliable) but nothing lost:
    the machine sends exactly the lossless run's frames — no ACK, no
    request, no resend — and returns the same results."""
    lossless_frames = sum(engine.stats["forwards"] for engine in
                          _run_offload(tier, program=program)[2])
    cluster, results, engines = _run_offload(
        tier, program=program,
        node_faults=[NodeFaultSpec(rank=7, crash_at=1e9)])
    assert cluster.nodes[0].via.reliable
    assert repr(results) == repr(offload_lossless_results[tier, program])
    for engine in engines:
        assert not any(engine.stats[key] for key in RECOVERY_COUNTERS)
    assert sum(engine.stats["forwards"]
               for engine in engines) == lossless_frames


def test_lossless_torus_stays_cold():
    cluster, results = _run_all(seed=None)
    totals = cluster.reliability_stats()
    assert all(value == 0 for value in totals.values()), totals
    assert results[0]["sum"] == np.float64(36.0)
