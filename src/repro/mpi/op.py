"""MPI reduction operations.

Each op carries a binary ``combine`` function applied to the payload
objects (numpy-aware: the functions work element-wise on arrays and on
plain scalars alike).  ``None`` payloads are treated as identity-less:
combining with None returns the other operand, which lets timing-only
benchmarks run reductions without materializing data — and without
numpy: the ufunc is bound by the first combine of two real operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


def _lift(ufunc: str) -> Callable[[Any, Any], Any]:
    """``numpy.<ufunc>``, None standing for the absent operand; numpy
    is imported by the first call that has two operands to combine."""
    fn = None

    def combined(a: Any, b: Any) -> Any:
        nonlocal fn
        if a is None:
            return b
        if b is None:
            return a
        if fn is None:
            import numpy

            fn = getattr(numpy, ufunc)
        return fn(a, b)
    return combined


@dataclass(frozen=True)
class Op:
    """A named, commutative reduction operator."""

    name: str
    combine: Callable[[Any, Any], Any]

    def __call__(self, a: Any, b: Any) -> Any:
        return self.combine(a, b)


SUM = Op("MPI_SUM", _lift("add"))
PROD = Op("MPI_PROD", _lift("multiply"))
MAX = Op("MPI_MAX", _lift("maximum"))
MIN = Op("MPI_MIN", _lift("minimum"))
LAND = Op("MPI_LAND", _lift("logical_and"))
LOR = Op("MPI_LOR", _lift("logical_or"))
BAND = Op("MPI_BAND", _lift("bitwise_and"))
BOR = Op("MPI_BOR", _lift("bitwise_or"))

#: Null reduction: used by barrier (global combine with no data).
NULL = Op("MPI_OP_NULL", lambda a, b: b if a is None else a)
