"""The lattice numerics behind Table 1's charge: the test oracle.

Table 1 (:mod:`repro.lqcd.benchmark`) charges a sustained kernel rate
against two flop constants and moves byte-count halos; no table runs
the kernels themselves.  They live here, where the ``test_lqcd_*``
files hold them to their physics and to the library:

* SU(3) matrix algebra on numpy arrays, with flop accounting;
* a staggered-type hopping (dslash) operator, :class:`WilsonDslash`,
  whose counted flops per site are the charged
  :data:`~repro.lqcd.benchmark.DSLASH_FLOPS_PER_SITE`;
* the full Wilson fermion operator (4-spinor, gamma matrices);
* a conjugate-gradient solver for the normal equations;
* the boundary-plane helpers that run a data-carrying halo fill
  through :class:`repro.lqcd.halo.HaloExchanger`, so a parallel fill
  can be checked against the periodic single-node operator.

Fields are numpy arrays over the local volume with one-site halo
shells on the three machine-distributed axes (t wraps locally):

* gauge field ``U``: shape (4, lx+2, ly+2, lz+2, lt, 3, 3)
* color field ``psi``: shape (lx+2, ly+2, lz+2, lt, 3)
* Wilson spinor: shape (lx+2, ly+2, lz+2, lt, 4, 3) (spin x color)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.lqcd.lattice import LocalLattice

# -- SU(3) algebra ------------------------------------------------------------

#: Flops for one 3x3 complex matrix-matrix multiply:
#: 27 complex mul (6 flops) + 18 complex add (2 flops).
SU3_MULTIPLY_FLOPS = 27 * 6 + 18 * 2  # = 198

#: Flops for a 3x3 complex matrix times color 3-vector:
#: 9 cmul + 6 cadd.
SU3_MATVEC_FLOPS = 9 * 6 + 6 * 2  # = 66

#: Flops for adding two color 3-vectors: 3 complex adds.
COLOR_ADD_FLOPS = 3 * 2  # = 6


def random_su3(num: int, rng: Optional[np.random.Generator] = None,
               dtype=np.complex128) -> np.ndarray:
    """``num`` Haar-ish random SU(3) matrices, shape (num, 3, 3).

    Gram-Schmidt orthonormalization of a random complex matrix, with
    the third row fixed by unitarity (the standard lattice trick) and
    the determinant phase removed so det == 1.
    """
    rng = rng or np.random.default_rng(0)
    m = rng.normal(size=(num, 3, 3)) + 1j * rng.normal(size=(num, 3, 3))
    return reunitarize(m.astype(dtype))


def reunitarize(m: np.ndarray) -> np.ndarray:
    """Project (V, 3, 3) matrices onto SU(3).

    Row-wise Gram-Schmidt for the first two rows, third row = conjugate
    cross product, then divide by the cube root of the determinant
    phase.
    """
    out = np.array(m, copy=True)
    r0 = out[:, 0, :]
    r0 /= np.linalg.norm(r0, axis=1, keepdims=True)
    r1 = out[:, 1, :]
    overlap = np.sum(np.conj(r0) * r1, axis=1, keepdims=True)
    r1 -= overlap * r0
    r1 /= np.linalg.norm(r1, axis=1, keepdims=True)
    out[:, 2, :] = np.conj(np.cross(r0, r1))
    # Remove any residual determinant phase (should already be ~1).
    det = np.linalg.det(out)
    out /= np.cbrt(np.abs(det))[:, None, None] * np.exp(
        1j * np.angle(det) / 3
    )[:, None, None]
    return out


def su3_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Site-wise 3x3 complex matrix product: (V,3,3) x (V,3,3)."""
    return np.einsum("vij,vjk->vik", a, b)


def su3_matvec(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Site-wise matrix times color vector: (V,3,3) x (V,3) -> (V,3)."""
    return np.einsum("vij,vj->vi", u, v)


def su3_dagger(u: np.ndarray) -> np.ndarray:
    """Site-wise Hermitian conjugate."""
    return np.conj(np.swapaxes(u, -1, -2))


def is_su3(u: np.ndarray, tol: float = 1e-10) -> bool:
    """Are all matrices unitary with determinant 1?"""
    identity = np.eye(3)
    uu = su3_multiply(u, su3_dagger(u))
    if not np.allclose(uu, identity[None, :, :], atol=tol):
        return False
    return np.allclose(np.linalg.det(u), 1.0, atol=tol)


# -- the staggered-type hopping operator --------------------------------------

#: Counted staggered dslash flops per site per application: 8 SU(3)
#: matrix-vector products + 7 color-vector adds = 570.
STAGGERED_FLOPS_PER_SITE = 8 * SU3_MATVEC_FLOPS + 7 * COLOR_ADD_FLOPS

#: Wire bytes per color-vector site (the staggered field, complex
#: single precision): what its halo carries.
COLOR_VECTOR_BYTES = 3 * 2 * 4  # = 24

#: Counted CG linear algebra per site on color vectors: 3 axpy-like
#: updates and 2 local dot products, each 3 components of one complex
#: multiply and one complex add = 120.
CG_COUNTED_FLOPS_PER_SITE = (3 + 2) * 3 * (6 + 2)


class WilsonDslash:
    """The staggered-type hopping operator on one node's sub-lattice.

    (Named for the paper's Wilson-era context.)

        D psi(x) = m psi(x) + (1/2) sum_mu eta_mu(x) [
            U_mu(x) psi(x+mu) - U_mu(x-mu)^dagger psi(x-mu) ]

    The operator reads neighbor values out of the halo shells; a
    :func:`parallel_halo_fill` fills them.  For single-node runs
    :meth:`fill_halo_periodic` wraps the shells locally so the operator
    is exactly the periodic-lattice dslash.
    """

    def __init__(self, local: LocalLattice, mass: float = 0.5,
                 rng: Optional[np.random.Generator] = None,
                 dtype=np.complex128) -> None:
        self.local = local
        self.mass = float(mass)
        self.dtype = dtype
        lx, ly, lz, lt = local.dims
        rng = rng or np.random.default_rng(12345)
        #: Gauge links with halo shells on x, y, z.
        self.U = np.zeros((4, lx + 2, ly + 2, lz + 2, lt, 3, 3),
                          dtype=dtype)
        links = random_su3(4 * local.volume, rng=rng, dtype=dtype)
        self.U[:, 1:-1, 1:-1, 1:-1, :, :, :] = links.reshape(
            4, lx, ly, lz, lt, 3, 3
        )
        self.fill_gauge_halo_periodic()
        #: Staggered phases eta_mu(x) = (-1)^(x0+..+x_{mu-1}).
        self._eta = self._staggered_phases()

    # -- construction helpers --------------------------------------------------
    def _staggered_phases(self) -> np.ndarray:
        lx, ly, lz, lt = self.local.dims
        x = np.arange(lx)[:, None, None, None]
        y = np.arange(ly)[None, :, None, None]
        z = np.arange(lz)[None, None, :, None]
        eta = np.empty((4, lx, ly, lz, lt))
        eta[0] = 1.0
        eta[1] = (-1.0) ** x
        eta[2] = (-1.0) ** (x + y)
        eta[3] = (-1.0) ** (x + y + z)
        return eta

    def random_field(self, rng: Optional[np.random.Generator] = None,
                     ) -> np.ndarray:
        """A random color field with (empty) halo shells."""
        rng = rng or np.random.default_rng(777)
        lx, ly, lz, lt = self.local.dims
        psi = np.zeros((lx + 2, ly + 2, lz + 2, lt, 3), dtype=self.dtype)
        psi[1:-1, 1:-1, 1:-1] = (
            rng.normal(size=(lx, ly, lz, lt, 3))
            + 1j * rng.normal(size=(lx, ly, lz, lt, 3))
        )
        return psi

    def zeros_field(self) -> np.ndarray:
        lx, ly, lz, lt = self.local.dims
        return np.zeros((lx + 2, ly + 2, lz + 2, lt, 3), dtype=self.dtype)

    # -- halo handling ---------------------------------------------------------
    def interior(self, field: np.ndarray) -> np.ndarray:
        """View of the owned sites (no halo shells)."""
        return field[1:-1, 1:-1, 1:-1]

    def boundary_slice(self, axis: int, side: int) -> Tuple:
        """Index of the owned boundary plane to *send* (axis 0..2,
        side +1 = high face, -1 = low face)."""
        index = [slice(1, -1)] * 3
        index[axis] = -2 if side > 0 else 1
        return tuple(index)

    def halo_slice(self, axis: int, side: int) -> Tuple:
        """Index of the halo shell to *fill* from the neighbor on
        ``side`` of ``axis``."""
        index = [slice(1, -1)] * 3
        index[axis] = -1 if side > 0 else 0
        return tuple(index)

    def fill_halo_periodic(self, field: np.ndarray) -> None:
        """Single-node wrap: copy boundary planes into opposite shells."""
        for axis in range(3):
            field[self.halo_slice(axis, +1)] = field[
                self.boundary_slice(axis, -1)
            ]
            field[self.halo_slice(axis, -1)] = field[
                self.boundary_slice(axis, +1)
            ]

    def fill_gauge_halo_periodic(self) -> None:
        for axis in range(3):
            hi = self.halo_slice(axis, +1)
            lo_b = self.boundary_slice(axis, -1)
            lo = self.halo_slice(axis, -1)
            hi_b = self.boundary_slice(axis, +1)
            self.U[(slice(None),) + hi] = self.U[(slice(None),) + lo_b]
            self.U[(slice(None),) + lo] = self.U[(slice(None),) + hi_b]

    # -- the operator ----------------------------------------------------------
    def apply(self, psi: np.ndarray, halo_filled: bool = False,
              ) -> np.ndarray:
        """D psi over the owned sites; halos of ``psi`` must be filled
        (or pass ``halo_filled=False`` to wrap periodically first).

        Returns a fresh field with owned sites set (halo shells zero).
        """
        if not halo_filled:
            self.fill_halo_periodic(psi)
        out = self.zeros_field()
        own = (slice(1, -1), slice(1, -1), slice(1, -1))
        result = self.mass * psi[own]
        # Spatial (distributed) axes: neighbors may live in the halo.
        for mu in range(3):
            fwd = [slice(1, -1)] * 3
            bwd = [slice(1, -1)] * 3
            fwd[mu] = slice(2, None)
            bwd[mu] = slice(0, -2)
            u_fwd = self.U[(mu,) + own]
            u_bwd = self.U[(mu,) + tuple(bwd)]
            hop = (
                np.einsum("xyztij,xyztj->xyzti", u_fwd, psi[tuple(fwd)])
                - np.einsum(
                    "xyztij,xyzti->xyztj", np.conj(u_bwd),
                    psi[tuple(bwd)],
                )
            )
            result = result + 0.5 * self._eta[mu, ..., None] * hop
        # Time axis: node-local, periodic via roll.
        u_t = self.U[(3,) + own]
        psi_own = psi[own]
        psi_tfwd = np.roll(psi_own, -1, axis=3)
        psi_tbwd = np.roll(psi_own, 1, axis=3)
        u_tbwd = np.roll(u_t, 1, axis=3)
        hop_t = (
            np.einsum("xyztij,xyztj->xyzti", u_t, psi_tfwd)
            - np.einsum("xyztij,xyzti->xyztj", np.conj(u_tbwd), psi_tbwd)
        )
        result = result + 0.5 * self._eta[3, ..., None] * hop_t
        out[own] = result
        return out

    def apply_dagger(self, psi: np.ndarray, halo_filled: bool = False,
                     ) -> np.ndarray:
        """D^dagger psi = (2m - D) psi for this anti-Hermitian-hopping
        operator (hopping part changes sign under dagger)."""
        d_psi = self.apply(psi, halo_filled=halo_filled)
        out = self.zeros_field()
        own = (slice(1, -1), slice(1, -1), slice(1, -1))
        out[own] = 2.0 * self.mass * psi[own] - d_psi[own]
        return out

    def normal_op(self, psi: np.ndarray) -> np.ndarray:
        """D^dagger D psi (the positive-definite CG operator)."""
        return self.apply_dagger(self.apply(psi))

    def flops_per_application(self) -> int:
        return STAGGERED_FLOPS_PER_SITE * self.local.volume


# -- the full Wilson operator -------------------------------------------------

#: Standard Wilson dslash flop count per site per application.
WILSON_FLOPS_PER_SITE = 1320


def _gamma_matrices() -> np.ndarray:
    """Euclidean gamma matrices, DeGrand-Rossi basis: shape (5,4,4),
    index 4 holding gamma5 = g0 g1 g2 g3 (diagonal in this basis)."""
    s0 = np.array([[1, 0], [0, 1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)

    def block(upper_right, lower_left):
        return np.block([[zero, upper_right], [lower_left, zero]])

    gammas = np.empty((5, 4, 4), dtype=complex)
    # Spatial: gamma_k = offdiag(-i sigma_k, +i sigma_k).
    gammas[0] = block(-1j * sx, 1j * sx)
    gammas[1] = block(-1j * sy, 1j * sy)
    gammas[2] = block(-1j * sz, 1j * sz)
    # Temporal: gamma_t = offdiag(1, 1).
    gammas[3] = block(s0, s0)
    gammas[4] = gammas[0] @ gammas[1] @ gammas[2] @ gammas[3]
    return gammas


GAMMA = _gamma_matrices()
IDENTITY4 = np.eye(4, dtype=complex)


class WilsonFermionOperator:
    """Wilson D bound to one node's sub-lattice, periodic halos:

        D psi(x) = psi(x) - kappa * sum_mu [
            (1 - gamma_mu) U_mu(x)        psi(x + mu)
          + (1 + gamma_mu) U_mu(x-mu)^dag psi(x - mu) ]

    Gamma matrices use the Euclidean DeGrand-Rossi basis; the test
    suite enforces the Clifford algebra and the operator's
    gamma5-hermiticity ``g5 D g5 = D^dagger``.
    """

    def __init__(self, local: LocalLattice, kappa: float = 0.12,
                 rng: Optional[np.random.Generator] = None,
                 dtype=np.complex128) -> None:
        self.local = local
        self.kappa = float(kappa)
        self.dtype = dtype
        lx, ly, lz, lt = local.dims
        rng = rng or np.random.default_rng(4242)
        self.U = np.zeros((4, lx + 2, ly + 2, lz + 2, lt, 3, 3),
                          dtype=dtype)
        links = random_su3(4 * local.volume, rng=rng, dtype=dtype)
        self.U[:, 1:-1, 1:-1, 1:-1] = links.reshape(
            4, lx, ly, lz, lt, 3, 3
        )
        self._fill_gauge_halo()
        #: Projector pairs per direction: (1 - gamma_mu), (1 + gamma_mu).
        self._minus = np.array([IDENTITY4 - GAMMA[mu] for mu in range(4)])
        self._plus = np.array([IDENTITY4 + GAMMA[mu] for mu in range(4)])

    # -- fields -----------------------------------------------------------
    def random_spinor(self, rng: Optional[np.random.Generator] = None,
                      ) -> np.ndarray:
        rng = rng or np.random.default_rng(99)
        lx, ly, lz, lt = self.local.dims
        psi = np.zeros((lx + 2, ly + 2, lz + 2, lt, 4, 3),
                       dtype=self.dtype)
        psi[1:-1, 1:-1, 1:-1] = (
            rng.normal(size=(lx, ly, lz, lt, 4, 3))
            + 1j * rng.normal(size=(lx, ly, lz, lt, 4, 3))
        )
        return psi

    def zeros_spinor(self) -> np.ndarray:
        lx, ly, lz, lt = self.local.dims
        return np.zeros((lx + 2, ly + 2, lz + 2, lt, 4, 3),
                        dtype=self.dtype)

    def interior(self, field: np.ndarray) -> np.ndarray:
        return field[1:-1, 1:-1, 1:-1]

    # -- halos -------------------------------------------------------------
    def _shell(self, axis: int, side: int, boundary: bool):
        index = [slice(1, -1)] * 3
        if boundary:
            index[axis] = -2 if side > 0 else 1
        else:
            index[axis] = -1 if side > 0 else 0
        return tuple(index)

    def fill_halo_periodic(self, field: np.ndarray) -> None:
        for axis in range(3):
            field[self._shell(axis, +1, False)] = field[
                self._shell(axis, -1, True)
            ]
            field[self._shell(axis, -1, False)] = field[
                self._shell(axis, +1, True)
            ]

    def _fill_gauge_halo(self) -> None:
        for axis in range(3):
            hi = (slice(None),) + self._shell(axis, +1, False)
            lo_b = (slice(None),) + self._shell(axis, -1, True)
            lo = (slice(None),) + self._shell(axis, -1, False)
            hi_b = (slice(None),) + self._shell(axis, +1, True)
            self.U[hi] = self.U[lo_b]
            self.U[lo] = self.U[hi_b]

    # -- the operator ------------------------------------------------------
    def apply(self, psi: np.ndarray, halo_filled: bool = False,
              ) -> np.ndarray:
        """D psi over owned sites (halo shells of the result are zero)."""
        if not halo_filled:
            self.fill_halo_periodic(psi)
        own = (slice(1, -1), slice(1, -1), slice(1, -1))
        result = psi[own].copy()
        hop = np.zeros_like(result)
        for mu in range(4):
            if mu < 3:
                fwd = [slice(1, -1)] * 3
                bwd = [slice(1, -1)] * 3
                fwd[mu] = slice(2, None)
                bwd[mu] = slice(0, -2)
                psi_fwd = psi[tuple(fwd)]
                psi_bwd = psi[tuple(bwd)]
                u_fwd = self.U[(mu,) + own]
                u_bwd = self.U[(mu,) + tuple(bwd)]
            else:
                psi_own = psi[own]
                psi_fwd = np.roll(psi_own, -1, axis=3)
                psi_bwd = np.roll(psi_own, 1, axis=3)
                u_fwd = self.U[(mu,) + own]
                u_bwd = np.roll(u_fwd, 1, axis=3)
            # (1 - gamma_mu) U_mu(x) psi(x+mu): spin matrix x color
            # matrix, acting on (site..., spin a, color j).
            hop += np.einsum(
                "ab,xyztij,xyztbj->xyztai",
                self._minus[mu], u_fwd, psi_fwd,
            )
            hop += np.einsum(
                "ab,xyztji,xyztbj->xyztai",
                self._plus[mu], np.conj(u_bwd), psi_bwd,
            )
        result -= self.kappa * hop
        out = self.zeros_spinor()
        out[own] = result
        return out

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        """D^dagger via gamma5-hermiticity: D^dag = g5 D g5."""
        rotated = self._gamma5(psi)
        applied = self.apply(rotated)
        return self._gamma5(applied)

    def _gamma5(self, psi: np.ndarray) -> np.ndarray:
        out = self.zeros_spinor()
        own = (slice(1, -1), slice(1, -1), slice(1, -1))
        out[own] = np.einsum("ab,xyztbi->xyztai", GAMMA[4], psi[own])
        return out

    def normal_op(self, psi: np.ndarray) -> np.ndarray:
        """D^dagger D psi (positive definite; CG-able)."""
        return self.apply_dagger(self.apply(psi))

    # Field-protocol aliases so :func:`cg_solve` works on either
    # fermion action.
    def zeros_field(self) -> np.ndarray:
        return self.zeros_spinor()

    def random_field(self, rng: Optional[np.random.Generator] = None,
                     ) -> np.ndarray:
        return self.random_spinor(rng)

    def flops_per_application(self) -> int:
        return WILSON_FLOPS_PER_SITE * self.local.volume


# -- conjugate gradient -------------------------------------------------------

@dataclass
class CgResult:
    """Outcome of a CG solve."""

    solution: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _dot(op, a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.sum(np.conj(op.interior(a)) * op.interior(b)))


def cg_solve(op, b: np.ndarray, tol: float = 1e-8,
             max_iters: int = 500) -> CgResult:
    """Solve D†D x = b on a single node (periodic halos)."""
    if tol <= 0:
        raise ConfigurationError(f"tolerance must be > 0, got {tol}")
    x = op.zeros_field()
    r = b.copy()
    p = b.copy()
    rsq = _dot(op, r, r).real
    bsq = rsq
    if bsq == 0:
        return CgResult(x, 0, 0.0, True)
    own = (slice(1, -1), slice(1, -1), slice(1, -1))
    for iteration in range(1, max_iters + 1):
        ap = op.normal_op(p)
        alpha = rsq / _dot(op, p, ap).real
        x[own] += alpha * p[own]
        r[own] -= alpha * ap[own]
        new_rsq = _dot(op, r, r).real
        if new_rsq / bsq < tol * tol:
            return CgResult(x, iteration, np.sqrt(new_rsq / bsq), True)
        beta = new_rsq / rsq
        p[own] = r[own] + beta * p[own]
        rsq = new_rsq
    return CgResult(x, max_iters, np.sqrt(rsq / bsq), False)


# -- data-carrying halo fill --------------------------------------------------

def field_planes(dslash: WilsonDslash,
                 field: np.ndarray) -> Dict[Tuple[int, int], np.ndarray]:
    """Boundary planes of ``field`` to send: (axis, sign) -> array.

    The plane sent toward ``sign`` is the owned face on that side; the
    neighbor installs it in its opposite halo shell.
    """
    planes = {}
    for axis in range(3):
        for sign in (+1, -1):
            planes[(axis, sign)] = np.ascontiguousarray(
                field[dslash.boundary_slice(axis, sign)]
            )
    return planes


def install_planes(dslash: WilsonDslash, field: np.ndarray,
                   received: Dict[Tuple[int, int], np.ndarray]) -> None:
    """Install received planes into the halo shells.

    A plane received from the neighbor on side ``sign`` of ``axis``
    fills our shell on that same side.
    """
    for (axis, sign), plane in received.items():
        if plane is not None:
            field[dslash.halo_slice(axis, sign)] = plane


def parallel_halo_fill(dslash: WilsonDslash, exchanger, field: np.ndarray):
    """Process: one full data-mode halo fill of ``field`` through a
    :class:`repro.lqcd.halo.HaloExchanger`."""
    received = yield from exchanger.exchange(field_planes(dslash, field))
    install_planes(dslash, field, received)
