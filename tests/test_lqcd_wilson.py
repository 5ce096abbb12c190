"""Physics tests for the full Wilson fermion operator."""

import numpy as np
import pytest

from repro.lqcd.lattice import LocalLattice
from tests.lqcd_oracle import (
    GAMMA,
    WILSON_FLOPS_PER_SITE,
    WilsonFermionOperator,
)


def test_clifford_algebra():
    """{gamma_mu, gamma_nu} = 2 delta_mu_nu."""
    for mu in range(4):
        for nu in range(4):
            anticommutator = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            expected = 2 * np.eye(4) if mu == nu else np.zeros((4, 4))
            assert np.allclose(anticommutator, expected)


def test_gammas_hermitian():
    for mu in range(5):
        assert np.allclose(GAMMA[mu], np.conj(GAMMA[mu].T))


def test_gamma5_anticommutes():
    for mu in range(4):
        assert np.allclose(
            GAMMA[4] @ GAMMA[mu] + GAMMA[mu] @ GAMMA[4],
            np.zeros((4, 4)),
        )
    assert np.allclose(GAMMA[4] @ GAMMA[4], np.eye(4))


@pytest.fixture(scope="module")
def wilson():
    return WilsonFermionOperator(LocalLattice(4, 4, 4, 4), kappa=0.11,
                                 rng=np.random.default_rng(31))


def _dot(op, a, b):
    return complex(np.sum(np.conj(op.interior(a)) * op.interior(b)))


def test_wilson_linearity(wilson):
    a = wilson.random_spinor(np.random.default_rng(1))
    b = wilson.random_spinor(np.random.default_rng(2))
    own = (slice(1, -1),) * 3
    combined = wilson.zeros_spinor()
    combined[own] = 1.5 * a[own] - 2j * b[own]
    lhs = wilson.apply(combined)
    assert np.allclose(
        wilson.interior(lhs),
        1.5 * wilson.interior(wilson.apply(a))
        - 2j * wilson.interior(wilson.apply(b)),
        atol=1e-10,
    )


def test_gamma5_hermiticity(wilson):
    """<a, D b> == <g5 D g5 a, b> — the defining property of a Wilson
    Dirac operator on any gauge background."""
    a = wilson.random_spinor(np.random.default_rng(3))
    b = wilson.random_spinor(np.random.default_rng(4))
    lhs = _dot(wilson, a, wilson.apply(b))
    rhs = _dot(wilson, wilson.apply_dagger(a), b)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_normal_op_positive_definite(wilson):
    psi = wilson.random_spinor(np.random.default_rng(5))
    value = _dot(wilson, psi, wilson.normal_op(psi))
    assert abs(value.imag) < 1e-8 * abs(value.real)
    assert value.real > 0


def test_free_field_constant_mode():
    """U = 1, constant spinor: the hopping term sums the projectors
    over all 8 directions to 8 * identity, so
    D psi = (1 - 8 kappa) psi."""
    op = WilsonFermionOperator(LocalLattice(4, 4, 4, 4), kappa=0.05)
    op.U[:] = np.eye(3)[None, None, None, None, None]
    psi = op.zeros_spinor()
    psi[1:-1, 1:-1, 1:-1] = 1.0
    result = op.apply(psi)
    expected = 1.0 - 8 * 0.05
    assert np.allclose(op.interior(result), expected, atol=1e-12)


def test_flop_constant():
    assert WILSON_FLOPS_PER_SITE == 1320
    op = WilsonFermionOperator(LocalLattice(2, 2, 2, 2))
    assert op.flops_per_application() == 16 * 1320


def test_kappa_zero_is_identity(wilson):
    op = WilsonFermionOperator(LocalLattice(2, 2, 2, 4), kappa=0.0)
    psi = op.random_spinor(np.random.default_rng(6))
    result = op.apply(psi)
    assert np.allclose(op.interior(result), op.interior(psi))


def test_cg_solves_wilson_normal_equations():
    from tests.lqcd_oracle import cg_solve

    op = WilsonFermionOperator(LocalLattice(4, 4, 4, 4), kappa=0.1,
                               rng=np.random.default_rng(32))
    b = op.random_spinor(np.random.default_rng(33))
    result = cg_solve(op, b, tol=1e-8, max_iters=400)
    assert result.converged
    residual = op.normal_op(result.solution)
    own = (slice(1, -1),) * 3
    rel = (np.linalg.norm(residual[own] - b[own])
           / np.linalg.norm(b[own]))
    assert rel < 1e-6
