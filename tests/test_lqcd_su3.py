"""Tests for SU(3) algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.lqcd_oracle import (
    SU3_MULTIPLY_FLOPS,
    is_su3,
    random_su3,
    reunitarize,
    su3_dagger,
    su3_matvec,
    su3_multiply,
)


def test_random_matrices_are_su3():
    u = random_su3(50, rng=np.random.default_rng(1))
    assert is_su3(u)


def test_group_closure_under_multiplication():
    rng = np.random.default_rng(2)
    a = random_su3(20, rng=rng)
    b = random_su3(20, rng=rng)
    assert is_su3(su3_multiply(a, b), tol=1e-9)


def test_inverse_is_dagger():
    u = random_su3(10, rng=np.random.default_rng(3))
    product = su3_multiply(u, su3_dagger(u))
    assert np.allclose(product, np.eye(3)[None], atol=1e-10)


def test_determinant_is_one():
    u = random_su3(30, rng=np.random.default_rng(4))
    assert np.allclose(np.linalg.det(u), 1.0, atol=1e-10)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_reunitarize_idempotent_on_su3(seed):
    u = random_su3(5, rng=np.random.default_rng(seed))
    again = reunitarize(u)
    assert np.allclose(u, again, atol=1e-8)


def test_reunitarize_projects_perturbed_matrices():
    rng = np.random.default_rng(5)
    u = random_su3(10, rng=rng)
    noisy = u + 0.01 * (rng.normal(size=u.shape)
                        + 1j * rng.normal(size=u.shape))
    assert not is_su3(noisy, tol=1e-6)
    assert is_su3(reunitarize(noisy), tol=1e-9)


def test_matvec_matches_matrix_action():
    rng = np.random.default_rng(6)
    u = random_su3(4, rng=rng)
    v = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    result = su3_matvec(u, v)
    for site in range(4):
        assert np.allclose(result[site], u[site] @ v[site])


def test_matvec_preserves_norm():
    rng = np.random.default_rng(7)
    u = random_su3(8, rng=rng)
    v = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    before = np.linalg.norm(v, axis=1)
    after = np.linalg.norm(su3_matvec(u, v), axis=1)
    assert np.allclose(before, after)


def test_flop_constant():
    # The standard count: 27 complex multiplies + 18 complex adds.
    assert SU3_MULTIPLY_FLOPS == 198
