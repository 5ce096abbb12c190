"""Three-tier differential harness: host vs kernel vs NIC collectives.

Every collective must produce bit-identical results on every tier —
on exact float64 values entered in lockstep, and on ordinary float64
values entered with per-rank skew, where a fold in arrival order shows
in the last bits — reruns must be trace-deterministic, and the NIC
tier must do strictly less host-side work (api-call / irq-wait spans)
than the kernel tier on the same workload.
"""

import random

import numpy as np
import pytest

from repro.cluster import build_mesh, build_world, run_mpi
from repro.errors import MpiError, TopologyError
from repro.mpi.op import MAX, MIN, PROD, SUM
from repro.obs.recorder import (
    API_CALL,
    IRQ_WAIT,
    NIC_COMBINE,
    NIC_FORWARD,
)
from repro.sim.monitor import Trace

MESHES = ((2, 2), (2, 2, 2), (3, 3))
TIERS = ("host", "kernel", "nic")
#: (label, op, per-rank value factory).  All values are small exact
#: integers in float64, so any fold order yields the same bits.
OPS = (
    ("sum", SUM, lambda rank: np.float64(rank + 1)),
    ("prod", PROD, lambda rank: np.float64(1 + rank % 3)),
    ("max", MAX, lambda rank: np.float64((rank * 7) % 11)),
    ("min", MIN, lambda rank: np.float64((rank * 5) % 13)),
)


def _build(dims, tier, observe=False, trace=False):
    cluster = build_mesh(dims, wrap=True, stack="via")
    if observe:
        cluster.observability()
    if trace:
        cluster.sim.trace = Trace()
    comms = build_world(cluster)
    if tier == "kernel":
        for node in cluster.nodes:
            node.via.enable_kernel_collectives()
    elif tier == "nic":
        for node in cluster.nodes:
            node.via.enable_nic_collectives()
    for comm in comms:
        comm.set_collective_tier(tier)
    return cluster, comms


def _grid_program(comm, seed=None):
    """One pass over the collective x op x root grid; returns a dict
    whose repr is the cross-tier comparison key.

    With a ``seed`` each rank enters every call after its own seeded
    skew (0-40 us, so children report in a different order each time)
    and contributes an ordinary float64 of any magnitude and sign,
    keyed by ``.hex()``: only a fold in canonical order survives that.
    """
    size = comm.size
    sim = comm.engine.sim
    rng = random.Random(f"{seed}/{comm.rank}")
    out = {}

    def value(exact):
        if seed is None:
            return exact
        return np.float64(rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8))

    def key(result):
        if seed is None or result is None:
            return result
        return float(result).hex()

    def skew():
        if seed is not None:
            yield sim.timeout(rng.uniform(0, 40))

    for label, op, value_of in OPS:
        yield from skew()
        out[f"allreduce-{label}"] = key((yield from comm.allreduce(
            nbytes=64, op=op, data=value(value_of(comm.rank)))))
        yield from skew()
        out[f"reduce-{label}"] = key((yield from comm.reduce(
            root=0, nbytes=64, op=op, data=value(value_of(comm.rank)))))
    for root in (0, size - 1):
        yield from skew()
        out[f"bcast-r{root}"] = key((yield from comm.bcast(
            root=root, nbytes=128,
            data=(value(np.float64(root + 17)) if comm.rank == root
                  else None))))
    yield from skew()
    yield from comm.barrier()
    out["barrier_done"] = True
    return out


@pytest.mark.parametrize("dims", MESHES,
                         ids=["x".join(map(str, d)) for d in MESHES])
def test_tiers_bit_identical(dims):
    """The same collective grid gives bit-identical results per rank
    on every tier."""
    per_tier = {}
    for tier in TIERS:
        cluster, comms = _build(dims, tier)
        results = run_mpi(cluster, _grid_program, comms=comms)
        per_tier[tier] = [repr(r) for r in results]
    assert per_tier["host"] == per_tier["kernel"]
    assert per_tier["host"] == per_tier["nic"]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dims", MESHES + ((3, 3, 3),),
                         ids=lambda dims: "x".join(map(str, dims)))
def test_tiers_bit_identical_under_entry_skew(dims, seed):
    """Skewed entry, ordinary values: still the same bits on every
    tier, because every tier folds local-then-children in tree order
    at subtree completion, never as frames arrive."""
    per_tier = {}
    for tier in TIERS:
        cluster, comms = _build(dims, tier)
        per_tier[tier] = run_mpi(cluster, _grid_program, comms=comms,
                                 args=(seed,))
    assert per_tier["host"] == per_tier["kernel"]
    assert per_tier["host"] == per_tier["nic"]


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("dims", MESHES,
                         ids=["x".join(map(str, d)) for d in MESHES])
def test_rerun_trace_identical(dims, tier):
    """Two runs of the same tier produce bit-identical event traces."""
    keys = []
    for _ in range(2):
        cluster, comms = _build(dims, tier, trace=True)
        results = run_mpi(cluster, _grid_program, comms=comms)
        keys.append((
            [repr(r) for r in results],
            [(r.time, r.name, r.kind)
             for r in cluster.sim.trace.records],
        ))
    assert keys[0] == keys[1]


def _allreduce_program(comm):
    for i in range(4):
        yield from comm.allreduce(nbytes=64,
                                  data=np.float64(comm.rank + i + 1))
    return None


def _collective_spans(recorder, prefix):
    ids = {trace for trace, info in recorder.traces.items()
           if info.name.startswith(prefix)}
    return [span for span in recorder.spans if span.trace in ids]


def test_nic_fewer_host_side_spans():
    """The offload claim, measured: on the same 4-allreduce workload
    the NIC tier records strictly fewer api-call/irq-wait spans than
    the kernel tier, no irq-wait at all, and at least 50% less
    host-side time per operation."""
    recorders = {}
    for tier in ("kernel", "nic"):
        cluster, comms = _build((2, 2, 2), tier, observe=True)
        run_mpi(cluster, _allreduce_program, comms=comms)
        recorders[tier] = cluster.sim.recorder

    kernel_spans = _collective_spans(recorders["kernel"], "kcoll-")
    nic_spans = _collective_spans(recorders["nic"], "nicoll-")

    def host_side(spans):
        return [s for s in spans if s.kind in (API_CALL, IRQ_WAIT)]

    kernel_host = host_side(kernel_spans)
    nic_host = host_side(nic_spans)
    assert len(nic_host) < len(kernel_host)
    # The NIC tier never waits on a per-hop interrupt.
    assert not any(s.kind == IRQ_WAIT for s in nic_spans)
    # The NIC stages exist only on the NIC tier.
    nic_kinds = {s.kind for s in nic_spans}
    kernel_kinds = {s.kind for s in kernel_spans}
    assert NIC_FORWARD in nic_kinds and NIC_COMBINE in nic_kinds
    assert NIC_FORWARD not in kernel_kinds
    assert NIC_COMBINE not in kernel_kinds
    # >= 50% host-overhead reduction per operation (acceptance gate).
    ops_k = len({s.trace for s in kernel_spans})
    ops_n = len({s.trace for s in nic_spans})
    mean_k = sum(s.duration for s in kernel_host) / ops_k
    mean_n = sum(s.duration for s in nic_host) / ops_n
    assert mean_n <= 0.5 * mean_k


def test_unknown_tier_rejected():
    cluster, comms = _build((2, 2), "host")
    with pytest.raises(MpiError, match="unknown collective tier"):
        comms[0].set_collective_tier("warp")


@pytest.mark.parametrize("tier", ("kernel", "nic"))
def test_tier_without_enablement_rejected(tier):
    cluster = build_mesh((2, 2), stack="via")
    comms = build_world(cluster)
    with pytest.raises(MpiError, match="not enabled"):
        comms[0].set_collective_tier(tier)


def test_offload_tier_needs_whole_torus():
    cluster, comms = _build((2, 2), "host")
    for node in cluster.nodes:
        node.via.enable_nic_collectives()
    sub = comms[0].create(range(3))
    with pytest.raises(MpiError, match="whole-torus"):
        sub.set_collective_tier("nic")
    # The whole-torus communicator itself accepts it.
    assert comms[0].set_collective_tier("nic") == "nic"


@pytest.mark.parametrize("tier", TIERS)
def test_out_of_range_root_rejected_on_every_tier(tier):
    """A root outside the communicator is the same error on every tier
    and every rank — also at the kernel site, which runs bcast and
    reduce as a combine over its own tree and never reads the root."""
    cluster, comms = _build((2, 2), tier)

    def program(comm):
        errors = []
        for call in (comm.bcast, comm.reduce):
            try:
                yield from call(root=9, nbytes=8, data=1.0)
            except TopologyError as error:
                errors.append(str(error))
        return errors

    assert run_mpi(cluster, program, comms=comms) == [
        ["rank 9 out of range [0, 4)"] * 2] * 4
