"""Tests for the CG solver and the parallel halo exchange."""

import numpy as np
import pytest

from repro.cluster import build_mesh, run_mpi
from repro.lqcd.halo import HaloExchanger
from repro.lqcd.lattice import LocalLattice
from tests.lqcd_oracle import (
    WilsonDslash,
    cg_solve,
    field_planes,
    install_planes,
)


def test_cg_converges_and_solution_verifies():
    dslash = WilsonDslash(LocalLattice(4, 4, 4, 4), mass=0.8,
                          rng=np.random.default_rng(21))
    b = dslash.random_field(np.random.default_rng(22))
    result = cg_solve(dslash, b, tol=1e-9, max_iters=400)
    assert result.converged
    # Verify D^dagger D x == b directly.
    residual = dslash.normal_op(result.solution)
    own = (slice(1, -1),) * 3
    rel = (np.linalg.norm(residual[own] - b[own])
           / np.linalg.norm(b[own]))
    assert rel < 1e-7


def test_cg_zero_rhs_trivial():
    dslash = WilsonDslash(LocalLattice(2, 2, 2, 2))
    result = cg_solve(dslash, dslash.zeros_field())
    assert result.converged
    assert result.iterations == 0


def test_cg_iterations_bounded_by_heavier_mass():
    rng = np.random.default_rng(23)
    light = WilsonDslash(LocalLattice(4, 4, 4, 4), mass=0.3, rng=rng)
    heavy = WilsonDslash(LocalLattice(4, 4, 4, 4), mass=2.0, rng=rng)
    b = light.random_field(np.random.default_rng(24))
    light_result = cg_solve(light, b, tol=1e-8)
    heavy_result = cg_solve(heavy, b, tol=1e-8)
    # Better conditioned (heavier mass) converges faster.
    assert heavy_result.iterations < light_result.iterations


def test_field_planes_roundtrip_locally():
    """Sending planes to yourself reproduces the periodic fill."""
    dslash = WilsonDslash(LocalLattice(4, 4, 4, 4),
                          rng=np.random.default_rng(25))
    field = dslash.random_field(np.random.default_rng(26))
    reference = field.copy()
    dslash.fill_halo_periodic(reference)
    planes = field_planes(dslash, field)
    # On a 1-node periodic machine the plane sent toward +x comes back
    # into our own -x halo... i.e. received[(axis, -1)] is the peer's
    # +1-face = our own +1-face.
    received = {
        (axis, -sign): planes[(axis, sign)]
        for axis in range(3) for sign in (+1, -1)
    }
    install_planes(dslash, field, received)
    assert np.allclose(field, reference)


def test_parallel_halo_exchange_two_nodes():
    """Two nodes on a ring exchange x-boundary planes correctly."""
    cluster = build_mesh((2,), wrap=True)
    local = LocalLattice(4, 4, 4, 4)
    fields = {}
    dslashes = {}

    def program(comm):
        dslash = WilsonDslash(local, rng=np.random.default_rng(30))
        field = dslash.random_field(
            np.random.default_rng(100 + comm.rank)
        )
        dslashes[comm.rank] = dslash
        fields[comm.rank] = field
        torus = comm.torus
        from repro.topology.torus import Direction

        # Only axis 0 is distributed on a (2,) machine; for the other
        # axes exchange with ourselves is not possible, so restrict the
        # exchanger to axis 0 and wrap the rest locally.
        neighbors = {
            (0, +1): torus.neighbor(comm.rank, Direction(0, +1)),
            (0, -1): torus.neighbor(comm.rank, Direction(0, -1)),
        }
        exchanger = HaloExchanger(comm, neighbors, local)
        planes = {
            key: field_planes(dslash, field)[key]
            for key in neighbors
        }
        received = yield from exchanger.exchange(planes)
        install_planes(dslash, field, received)
        return None

    run_mpi(cluster, program)
    # Node 0's +x halo shell must equal node 1's -x boundary face.
    d0, d1 = dslashes[0], dslashes[1]
    f0, f1 = fields[0], fields[1]
    assert np.allclose(
        f0[d0.halo_slice(0, +1)], f1[d1.boundary_slice(0, -1)]
    )
    assert np.allclose(
        f1[d1.halo_slice(0, -1)], f0[d0.boundary_slice(0, +1)]
    )


def test_halo_timing_mode_counts_bytes():
    cluster = build_mesh((2, 2, 2))
    stats = {}

    def program(comm):
        from repro.topology.torus import Direction

        local = LocalLattice(4, 4, 4, 4)
        torus = comm.torus
        neighbors = {
            (axis, sign): torus.neighbor(comm.rank,
                                         Direction(axis, sign))
            for axis in range(3) for sign in (+1, -1)
        }
        exchanger = HaloExchanger(comm, neighbors, local)
        yield from exchanger.exchange(None)
        stats[comm.rank] = exchanger.stats
        return None

    run_mpi(cluster, program)
    local = LocalLattice(4, 4, 4, 4)
    expected = sum(
        local.surface_sites(axis) * 48 for axis in range(3)
    ) * 2
    assert stats[0]["bytes"] == expected
