"""Collectives over the reliable VIA layer on a lossy 8-node torus.

The MPI collectives run over the messaging core, which runs over VIA
channels — so the go-back-N layer underneath must make every collective
produce *bit-identical* results at 1% frame loss, merely slower.  Also
pins the determinism guarantee: one fault seed, one event trace.
"""

import numpy as np
import pytest

from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.hw.faults import FaultParams
from repro.hw.params import GigEParams
from repro.sim import Simulator, Trace

DIMS = (2, 2, 2)  # the 8-node torus of the paper's small testbed
LOSS = 0.01


def _lossy_params(seed):
    return GigEParams(faults=FaultParams(seed=seed, loss_rate=LOSS))


def _build(seed=None, trace=None):
    sim = Simulator(trace=trace) if trace is not None else None
    gige = _lossy_params(seed) if seed is not None else None
    return build_mesh(DIMS, gige_params=gige, sim=sim)


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
    from repro.sim.monitor import reliability_summary

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


def _run_offload(tier, seed=None):
    cluster = _build(seed=seed)
    comms = build_world(cluster)
    engines = [getattr(node.via, f"enable_{tier}_collectives")()
               for node in cluster.nodes]
    results = [None] * cluster.size
    run_mpi(cluster, _offload_program, args=(results, tier), comms=comms)
    return cluster, results, engines


@pytest.fixture(scope="module")
def offload_lossless_results():
    return {tier: _run_offload(tier)[1] for tier in ("nic", "kernel")}


# The NIC rows keep the ids they had before the tier was a parameter.
@pytest.mark.parametrize("tier,seed", [
    pytest.param(tier, seed,
                 id=str(seed) if tier == "nic" else f"{tier}-{seed}")
    for tier in ("nic", "kernel") for seed in (101, 202, 303)
])
def test_nic_collectives_bit_identical_under_loss(tier, seed,
                                                  offload_lossless_results):
    """The state machine's own go-back-N makes 1% loss invisible at
    either site: every rank's results are bit-identical to the
    lossless run."""
    cluster, results, engines = _run_offload(tier, seed=seed)
    dropped = sum(sum(link.stats["dropped"]) for link in cluster.links)
    assert dropped > 0, "1% loss injected nothing; test is vacuous"
    # ...with the site's own ARQ engaged: frames sequenced and ACKed.
    assert sum(engine.stats["acks_received"] for engine in engines) > 0
    lossless = offload_lossless_results[tier]
    for rank in range(cluster.size):
        assert repr(results[rank]) == repr(lossless[rank])
        assert results[rank]["sum0"] == np.float64(36.0)


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
        # Kernel go-back-N traffic (point-to-point)...
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
    # Both reliability planes did real recovery work or at least saw
    # real losses on the shared fabric.
    dropped = sum(sum(link.stats["dropped"]) for link in cluster.links)
    assert dropped > 0
    nic_totals = {}
    for node in cluster.nodes:
        for key, value in node.via.nic_collective.stats.items():
            nic_totals[key] = nic_totals.get(key, 0) + value
    assert nic_totals["acks_sent"] > 0  # the NIC ARQ engaged


ARQ_COUNTERS = ("acks_sent", "acks_received", "retransmits",
                "dup_frames", "ooo_dropped", "dropped_bad_checksum")


def test_nic_arq_stays_cold_without_loss():
    """On a lossless fabric neither site ever sequences a frame or
    sends an ACK — default runs are identical to pre-ARQ behavior."""
    for tier in ("nic", "kernel"):
        cluster, results, engines = _run_offload(tier)
        for engine in engines:
            assert not any(engine.stats[key] for key in ARQ_COUNTERS)
            # No frame was ever given a sequence number, none tracked.
            assert not engine._tx_next and not engine._rx_next
            assert not engine._unacked and not engine._rto_armed
        assert results[0]["sum0"] == np.float64(36.0)


def test_lossless_torus_stays_cold():
    cluster, results = _run_all(seed=None)
    totals = cluster.reliability_stats()
    assert all(value == 0 for value in totals.values()), totals
    assert results[0]["sum"] == np.float64(36.0)
