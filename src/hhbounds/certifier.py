"""Composite midpoint integration with a certified error radius.

Each uniform subinterval of width h contributes h^3/24 times the mean (or,
under the weaker quasi-convex hypothesis, the max) of its endpoint |f''|
values to the radius; the true integral then lies within the radius of the
estimate whenever |f''| has the claimed class on every subinterval.  Both
classes restrict to subintervals, so checking the full interval suffices.
The certificate is exact in real arithmetic; floating-point rounding is
not tracked.

The radius depends on |f''| at the cuts alone, so ``refine_to_tolerance``
searches on f'' and evaluates f once, at the midpoints of the level it
returns.  Its grids are nested: cut i of n subintervals is bit-for-bit cut
2i of 2n (scaling by two is exact), so each doubling evaluates |f''| only
at the n new odd cuts.  Those cuts are the midpoints of the coarser grid,
and for convex |f''| the Hermite-Hadamard inequality (midpoint sum <=
integral <= trapezoid sum) turns their values into a lower bound on every
finer radius; a tolerance below it fails at once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .core import ConvergenceError, DomainError, HypothesisError, Interval, TestFunction
from .oracle import check_convex_abs_d2, check_quasiconvex_abs_d2

#: refinement cap for refine_to_tolerance
MAX_SUBINTERVALS = 1 << 20

#: relative margin on the Hermite-Hadamard floor, above the rounding of the
#: 2^20-term radius sum, so the early exit never fires on a reachable tolerance
_FLOOR_MARGIN = 1e-6


class CertTheorem(str, Enum):
    CONVEX_Q1 = "convex_q1"
    QUASI_Q1 = "quasi_q1"


@dataclass(frozen=True)
class CertifiedIntegral:
    estimate: float
    error_radius: float
    subintervals: int
    theorem_used: CertTheorem


def _require_hypotheses(fn: TestFunction, iv: Interval, theorem: CertTheorem) -> None:
    if not fn.defined_on(iv):
        raise DomainError(f"[{iv.a}, {iv.b}] is outside the domain of {fn.id!r}")
    if theorem is CertTheorem.CONVEX_Q1:
        if not check_convex_abs_d2(fn, iv):
            raise HypothesisError(f"class check failed: |f''| of {fn.id!r} "
                                  f"is not convex on [{iv.a}, {iv.b}]")
    elif not check_quasiconvex_abs_d2(fn, iv):
        raise HypothesisError(f"class check failed: |f''| of {fn.id!r} "
                              f"is not quasi-convex on [{iv.a}, {iv.b}]")


def _abs_d2(fn: TestFunction, iv: Interval, n: int, indices: range) -> array:
    """|f''| at the cuts a + width*i/n of the n-subinterval grid, the last
    pinned to b."""
    d2 = fn.d2
    a, b, width = iv.a, iv.b, iv.width
    out = array("d")
    append = out.append
    for i in indices:
        append(abs(d2(b if i == n else a + width * i / n)))
    return out


def _radius(iv: Interval, n: int, abs_d2: array, theorem: CertTheorem) -> float:
    """h^3/24 times the left-to-right sum of each subinterval's endpoint
    aggregate of |f''| (mean under CONVEX_Q1, max under QUASI_Q1)."""
    weight = 0.0
    left = abs_d2[0]
    if theorem is CertTheorem.CONVEX_Q1:
        for right in islice(abs_d2, 1, None):
            weight += 0.5 * (left + right)
            left = right
    else:
        for right in islice(abs_d2, 1, None):
            weight += max(left, right)
            left = right
    h = iv.width / n
    return h ** 3 / 24.0 * weight


def _estimate(fn: TestFunction, iv: Interval, n: int) -> float:
    """h times the left-to-right sum of f at the n subinterval midpoints."""
    f = fn.f
    a, b, width = iv.a, iv.b, iv.width
    left = a
    total = 0.0
    for i in range(1, n + 1):
        right = b if i == n else a + width * i / n
        total += f(0.5 * (left + right))
        left = right
    h = width / n
    return h * total


def integrate_certified(fn: TestFunction, iv: Interval, n: int,
                        theorem: CertTheorem = CertTheorem.CONVEX_Q1) -> CertifiedIntegral:
    """Composite midpoint rule over n equal subintervals with an error radius.

    Raises HypothesisError when the 64-point sample refutes the theorem's
    class for |f''| on iv.  Terms are summed left to right for determinism.
    """
    if n < 1:
        raise DomainError(f"need at least one subinterval, got {n}")
    _require_hypotheses(fn, iv, theorem)
    abs_d2 = _abs_d2(fn, iv, n, range(n + 1))
    return CertifiedIntegral(
        estimate=_estimate(fn, iv, n),
        error_radius=_radius(iv, n, abs_d2, theorem),
        subintervals=n,
        theorem_used=theorem,
    )


def refine_to_tolerance(fn: TestFunction, iv: Interval, tol: float,
                        theorem: CertTheorem = CertTheorem.CONVEX_Q1) -> CertifiedIntegral:
    """The certificate of the fewest power-of-two subintervals, from 1 up to
    2^20, whose radius fits the tolerance.

    Equal to ``integrate_certified`` at the subinterval count it returns.
    The search doubles on nested grids and reads |f''| alone, one
    evaluation per cut; f is evaluated only at the returned level's
    midpoints.  The radius scales as h^2 for bounded |f''|, so the count
    grows as O(tol^(-1/2)).  Raises HypothesisError as
    ``integrate_certified`` does, ConvergenceError when the radius is
    still above tol at 2^20 subintervals, and under CONVEX_Q1 as soon as
    the Hermite-Hadamard floor of the radius at 2^20 is above tol.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    _require_hypotheses(fn, iv, theorem)
    n = 1
    abs_d2 = _abs_d2(fn, iv, n, range(n + 1))
    while True:
        radius = _radius(iv, n, abs_d2, theorem)
        if radius <= tol:
            return CertifiedIntegral(_estimate(fn, iv, n), radius, n, theorem)
        if n >= MAX_SUBINTERVALS:
            raise ConvergenceError(f"radius {radius} still above {tol} at n={n}")
        odd = _abs_d2(fn, iv, 2 * n, range(1, 2 * n, 2))
        if theorem is CertTheorem.CONVEX_Q1:
            # the odd cuts are the midpoints of the n-grid: for convex |f''|
            # their midpoint sum is at most its integral, which is at most
            # the trapezoid sum inside every finer radius
            total = 0.0
            for g in odd:
                total += g
            floor = iv.width ** 2 * (iv.width / n * total) / (24.0 * MAX_SUBINTERVALS ** 2)
            if floor > tol * (1.0 + _FLOOR_MARGIN):
                raise ConvergenceError(
                    f"radius at n={MAX_SUBINTERVALS} is at least {floor} "
                    f"(Hermite-Hadamard floor from the cuts at n={2 * n}), above {tol}")
        finer = array("d", [0.0]) * (2 * n + 1)
        finer[0::2] = abs_d2
        finer[1::2] = odd
        abs_d2, n = finer, 2 * n
        del odd  # else still held while the next level's cuts are read
