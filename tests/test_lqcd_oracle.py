"""The oracle holds Table 1's charge to counted kernels and the halo
exchange to the periodic single-node operator.

Table 1 charges :data:`~repro.lqcd.benchmark.DSLASH_FLOPS_PER_SITE` and
:data:`~repro.lqcd.benchmark.CG_LINALG_FLOPS_PER_SITE` without running a
kernel; here the kernels of ``tests/lqcd_oracle.py`` count the same.
And eight ranks of a 2x2x2 mesh, each owning one slab of a global
lattice, fill their halos through :class:`~repro.lqcd.halo.HaloExchanger`
over the simulated machine: every operator step then equals the
periodic single-node operator on the whole lattice, and the global norm
each step combines is the same on every rank.
"""

import numpy as np
import pytest

from repro.cluster import build_mesh, run_mpi
from repro.lqcd.benchmark import (
    CG_LINALG_FLOPS_PER_SITE,
    DSLASH_FLOPS_PER_SITE,
    flops_per_iteration,
)
from repro.lqcd.halo import HaloExchanger
from repro.lqcd.lattice import LocalLattice, SubLatticeDecomposition
from repro.topology.torus import Direction
from tests.lqcd_oracle import (
    CG_COUNTED_FLOPS_PER_SITE,
    COLOR_VECTOR_BYTES,
    STAGGERED_FLOPS_PER_SITE,
    WilsonDslash,
    parallel_halo_fill,
)

MACHINE = (2, 2, 2)
#: Even extents: a slab's local staggered phases are the global ones.
LOCAL = LocalLattice(4, 4, 4, 4)
ITERATIONS = 3


def test_charged_dslash_flops_are_the_counted_kernel():
    assert DSLASH_FLOPS_PER_SITE == STAGGERED_FLOPS_PER_SITE
    assert WilsonDslash(LOCAL).flops_per_application() == (
        DSLASH_FLOPS_PER_SITE * LOCAL.volume)


def test_charged_cg_flops_are_the_counted_linear_algebra():
    assert CG_LINALG_FLOPS_PER_SITE == CG_COUNTED_FLOPS_PER_SITE
    assert flops_per_iteration(LOCAL) == LOCAL.volume * (
        2 * STAGGERED_FLOPS_PER_SITE + CG_COUNTED_FLOPS_PER_SITE)


def _global_reference():
    """The whole lattice on one node: its operator, the starting field,
    and the owned sites after each periodic operator step."""
    dims = tuple(n * m for n, m in zip(LOCAL.dims, MACHINE + (1,)))
    whole = WilsonDslash(LocalLattice(*dims), mass=0.5,
                         rng=np.random.default_rng(42))
    psi = whole.random_field(np.random.default_rng(1000))
    start = psi.copy()
    steps = []
    for _ in range(ITERATIONS):
        psi = whole.apply(psi)
        steps.append(whole.interior(psi).copy())
    return whole, start, steps


def _block(origin):
    """A node's index into a padded whole-lattice field: the owned
    sites at ``origin`` plus one halo shell on x, y, z."""
    return tuple(slice(o, o + n + 2) for o, n in zip(origin, LOCAL.dims[:3]))


@pytest.fixture(scope="module")
def parallel_run():
    whole, start, steps = _global_reference()
    report = {}

    def program(comm):
        origin = SubLatticeDecomposition(comm.torus, LOCAL).node_origin(
            comm.rank)
        dslash = WilsonDslash(LOCAL, mass=0.5)
        # The whole lattice's links, halo shells included.
        dslash.U = whole.U[(slice(None),) + _block(origin)].copy()
        psi = dslash.zeros_field()
        dslash.interior(psi)[:] = whole.interior(start[_block(origin)])
        neighbors = {
            (axis, sign): comm.torus.neighbor(comm.rank,
                                              Direction(axis, sign))
            for axis in range(3) for sign in (+1, -1)
        }
        exchanger = HaloExchanger(comm, neighbors, LOCAL,
                                  site_bytes=COLOR_VECTOR_BYTES)
        yield from comm.barrier()
        fields, norms = [], []
        for _ in range(ITERATIONS):
            yield from parallel_halo_fill(dslash, exchanger, psi)
            psi = dslash.apply(psi, halo_filled=True)
            fields.append(dslash.interior(psi).copy())
            local_norm = float(np.sum(np.abs(dslash.interior(psi)) ** 2))
            norm = yield from comm.allreduce(nbytes=8, data=local_norm)
            norms.append(norm)
        report[comm.rank] = (origin, fields, norms, exchanger.stats)

    run_mpi(build_mesh(MACHINE, wrap=True), program)
    return steps, report


def test_parallel_halo_fill_equals_the_periodic_operator(parallel_run):
    steps, report = parallel_run
    assert len(report) == 8
    for origin, fields, _, _ in report.values():
        for step, field in zip(steps, fields):
            # ``step`` holds owned sites only: the block, shifted back.
            want = step[tuple(slice(o, o + n) for o, n in
                              zip(origin, LOCAL.dims[:3]))]
            np.testing.assert_allclose(field, want, rtol=1e-12, atol=0)


def test_eight_rank_global_norm_is_reproducible(parallel_run):
    steps, report = parallel_run
    norms = [entry[2] for entry in report.values()]
    assert all(n == norms[0] for n in norms)
    assert norms[0] == pytest.approx(
        [float(np.sum(np.abs(step) ** 2)) for step in steps], rel=1e-12)


def test_halo_traffic_and_surface_to_volume(parallel_run):
    _, report = parallel_run
    stats = report[0][3]
    assert stats["exchanges"] == ITERATIONS
    assert stats["bytes"] // ITERATIONS == (
        LOCAL.total_surface_sites() * COLOR_VECTOR_BYTES)
    assert LOCAL.surface_to_volume() == 1.5
