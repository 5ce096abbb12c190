"""Lattice QCD application benchmark (paper sections 1, 6).

The clusters' primary mission is LQCD: each node operates on a regular
4-D sub-lattice, exchanging 3-D hypersurface data with its six mesh
neighbors each iteration, then performing a global reduction.  This
package holds what Table 1 runs:

* :mod:`repro.lqcd.lattice` — 4-D domain decomposition onto the 3-D
  machine grid, surface-to-volume analysis;
* :mod:`repro.lqcd.halo` — the hypersurface exchange over QMP/MPI;
* :mod:`repro.lqcd.benchmark` — the Table 1 harness: the charged flop
  counts, the cost model, Gflops per node and $/Mflops for the GigE
  mesh vs the Myrinet comparator.

The SU(3), staggered, Wilson and CG numerics behind the flop counts
are the test suite's oracle (``tests/lqcd_oracle.py``).
"""

from repro._lazy import lazy_exports

#: Public name -> submodule, resolved on first access.
_EXPORTS = {
    "LocalLattice": "lattice",
    "SubLatticeDecomposition": "lattice",
    "DSLASH_FLOPS_PER_SITE": "benchmark",
    "LqcdBenchmark": "benchmark",
    "LqcdResult": "benchmark",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
