"""Physics tests for the hopping operator."""

import numpy as np
import pytest

from repro.lqcd.benchmark import DSLASH_FLOPS_PER_SITE
from repro.lqcd.lattice import LocalLattice
from tests.lqcd_oracle import WilsonDslash


@pytest.fixture(scope="module")
def dslash():
    return WilsonDslash(LocalLattice(4, 4, 4, 4), mass=0.5,
                        rng=np.random.default_rng(11))


def _rand_field(dslash, seed):
    return dslash.random_field(np.random.default_rng(seed))


def _dot(dslash, a, b):
    return complex(np.sum(np.conj(dslash.interior(a))
                          * dslash.interior(b)))


def test_linearity(dslash):
    a = _rand_field(dslash, 1)
    b = _rand_field(dslash, 2)
    combined = dslash.zeros_field()
    own = (slice(1, -1),) * 3
    combined[own] = 2.0 * a[own] + 3.0j * b[own]
    lhs = dslash.apply(combined)
    rhs_a = dslash.apply(a)
    rhs_b = dslash.apply(b)
    assert np.allclose(
        dslash.interior(lhs),
        2.0 * dslash.interior(rhs_a) + 3.0j * dslash.interior(rhs_b),
        atol=1e-10,
    )


def test_dagger_is_adjoint(dslash):
    """<a, D b> == <D^dagger a, b> site-summed."""
    a = _rand_field(dslash, 3)
    b = _rand_field(dslash, 4)
    lhs = _dot(dslash, a, dslash.apply(b))
    rhs = _dot(dslash, dslash.apply_dagger(a), b)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_hopping_part_antihermitian(dslash):
    """With the mass removed, <a, H b> == -conj(<b, H a>)."""
    a = _rand_field(dslash, 5)
    b = _rand_field(dslash, 6)

    def hop(field):
        full = dslash.apply(field)
        out = dslash.zeros_field()
        own = (slice(1, -1),) * 3
        out[own] = full[own] - dslash.mass * field[own]
        return out

    lhs = _dot(dslash, a, hop(b))
    rhs = _dot(dslash, b, hop(a))
    assert lhs == pytest.approx(-np.conj(rhs), rel=1e-9)


def test_normal_op_positive_definite(dslash):
    field = _rand_field(dslash, 7)
    value = _dot(dslash, field, dslash.normal_op(field))
    assert abs(value.imag) < 1e-8 * abs(value.real)
    assert value.real > 0


def test_mass_term_only_for_constant_gauge():
    """On a unit-gauge lattice, D applied to a constant field has a
    known action: the hopping part cancels pairwise."""
    local = LocalLattice(4, 4, 4, 4)
    dslash = WilsonDslash(local, mass=0.7,
                          rng=np.random.default_rng(12))
    dslash.U[:] = np.eye(3)[None, None, None, None, None]
    field = dslash.zeros_field()
    field[1:-1, 1:-1, 1:-1] = 1.0
    result = dslash.apply(field)
    own = dslash.interior(result)
    # With eta phases the hops do not cancel exactly site-by-site, but
    # U=1 and constant psi make the x-forward and x-backward terms
    # equal, so hop contribution = 0 for mu=0... verify numerically
    # against a direct reimplementation instead: D psi = m psi when
    # all neighbors equal psi and U = 1 (forward minus backward
    # cancels).
    assert np.allclose(own, 0.7 * np.ones_like(own), atol=1e-12)


def test_flop_constant():
    assert DSLASH_FLOPS_PER_SITE == 570


def test_flops_per_application_scales_with_volume():
    small = WilsonDslash(LocalLattice(2, 2, 2, 2))
    large = WilsonDslash(LocalLattice(4, 4, 4, 4))
    assert large.flops_per_application() == (
        16 * small.flops_per_application()
    )


def test_boundary_and_halo_slices_are_disjoint(dslash):
    field = dslash.zeros_field()
    for axis in range(3):
        for side in (+1, -1):
            boundary = field[dslash.boundary_slice(axis, side)]
            halo = field[dslash.halo_slice(axis, side)]
            assert boundary.shape == halo.shape


def test_periodic_halo_fill_wraps(dslash):
    field = dslash.random_field(np.random.default_rng(13))
    dslash.fill_halo_periodic(field)
    for axis in range(3):
        assert np.allclose(
            field[dslash.halo_slice(axis, +1)],
            field[dslash.boundary_slice(axis, -1)],
        )
        assert np.allclose(
            field[dslash.halo_slice(axis, -1)],
            field[dslash.boundary_slice(axis, +1)],
        )
