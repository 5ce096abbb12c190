"""Tests for lattice decomposition and surface-to-volume accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.lqcd.lattice import (
    HALF_SPINOR_BYTES,
    LocalLattice,
    SubLatticeDecomposition,
)
from repro.lqcd.benchmark import TABLE1_LATTICES
from repro.topology import Torus


def test_volume_and_dims():
    local = LocalLattice(4, 6, 8, 10)
    assert local.volume == 4 * 6 * 8 * 10
    assert local.dims == (4, 6, 8, 10)


def test_minimum_extent_enforced():
    with pytest.raises(ConfigurationError):
        LocalLattice(1, 4, 4, 4)


def test_surface_sites_per_axis():
    local = LocalLattice(4, 6, 8, 10)
    assert local.surface_sites(0) == 6 * 8 * 10
    assert local.surface_sites(1) == 4 * 8 * 10
    assert local.surface_sites(2) == 4 * 6 * 10
    with pytest.raises(ConfigurationError):
        local.surface_sites(3)  # t is never distributed


def test_total_surface_and_ratio():
    local = LocalLattice(4, 4, 4, 4)
    assert local.total_surface_sites() == 2 * 3 * 64
    assert local.surface_to_volume() == pytest.approx(384 / 256)


def test_surface_to_volume_decreases_with_size():
    ratios = [
        LocalLattice(L, L, L, L).surface_to_volume()
        for L in (4, 6, 8, 12)
    ]
    assert ratios == sorted(ratios, reverse=True)


def test_halo_bytes():
    local = LocalLattice(4, 4, 4, 4)
    assert local.halo_bytes(0) == 64 * HALF_SPINOR_BYTES


def test_decomposition_global_dims():
    deco = SubLatticeDecomposition(Torus((4, 8, 8)),
                                   LocalLattice(4, 4, 4, 16))
    assert deco.global_dims == (16, 32, 32, 16)


def test_decomposition_requires_3d_machine():
    with pytest.raises(ConfigurationError):
        SubLatticeDecomposition(Torus((8, 8)), LocalLattice(4, 4, 4, 4))


def test_node_origin():
    deco = SubLatticeDecomposition(Torus((2, 2, 2)),
                                   LocalLattice(4, 4, 4, 8))
    assert deco.node_origin(0) == (0, 0, 0, 0)
    last = deco.machine.size - 1
    assert deco.node_origin(last) == (4, 4, 4, 0)


def test_standard_sweep_monotone():
    locals_ = TABLE1_LATTICES
    volumes = [l.volume for l in locals_]
    assert volumes == sorted(volumes)
