"""MPI reduction operations.

Each op carries a binary ``combine`` function applied to the payload
objects (numpy-aware: the functions work element-wise on arrays and on
plain scalars alike).  ``None`` payloads are treated as identity-less:
combining with None returns the other operand, which lets timing-only
benchmarks run reductions without materializing data.

Two Python ``float`` operands (exactly ``float``: a ``numpy.float64``
is a subclass and keeps the ufunc) reduce under SUM, PROD, MAX and MIN
in Python arithmetic and give a ``float``: the IEEE-754 double the
ufunc computes, bit for bit, NaN payloads and signed zeros included.
So the paper's scalar global sums never load numpy.  Every other pair
— ints (``numpy.add(True, True)`` is ``True``, int64 wraps), bools,
mixed pairs, numpy scalars, arrays — goes to the ufunc, which the
first such combine imports and binds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


# A NaN on the left is the ufunc's answer, quieted.  CPython's generic
# and specialised float adds return opposite operands of a NaN pair, so
# that case is ``a + a`` (the one NaN, quieted) rather than ``a + b``.
def _add(a: float, b: float) -> float:
    return a + b if a == a else a + a


def _multiply(a: float, b: float) -> float:
    return a * b if a == a else a * a


# numpy.maximum / numpy.minimum: a NaN on either side wins (the left
# one if both), and of two equal operands (-0.0 and 0.0) the right one.
def _maximum(a: float, b: float) -> float:
    return a if a > b or a != a else b


def _minimum(a: float, b: float) -> float:
    return a if a < b or a != a else b


def _lift(ufunc: str, on_floats: Optional[Callable[[float, float], float]]
          = None) -> Callable[[Any, Any], Any]:
    """``numpy.<ufunc>``, None standing for the absent operand; two
    Python floats go to ``on_floats`` instead, and numpy is imported by
    the first call that leaves the ufunc two operands."""
    fn = None

    def combined(a: Any, b: Any) -> Any:
        nonlocal fn
        if a is None:
            return b
        if b is None:
            return a
        if on_floats is not None and type(a) is float and type(b) is float:
            return on_floats(a, b)
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


SUM = Op("MPI_SUM", _lift("add", _add))
PROD = Op("MPI_PROD", _lift("multiply", _multiply))
MAX = Op("MPI_MAX", _lift("maximum", _maximum))
MIN = Op("MPI_MIN", _lift("minimum", _minimum))
LAND = Op("MPI_LAND", _lift("logical_and"))
LOR = Op("MPI_LOR", _lift("logical_or"))
BAND = Op("MPI_BAND", _lift("bitwise_and"))
BOR = Op("MPI_BOR", _lift("bitwise_or"))

#: Null reduction: used by barrier (global combine with no data).
NULL = Op("MPI_OP_NULL", lambda a, b: b if a is None else a)
