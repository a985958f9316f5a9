"""Ground-truth numerics the closed-form bounds are tested against.

Provides adaptive quadrature, the true midpoint gap, sampling-based
convexity, quasi-convexity and monotonicity verdicts, and the class
hypotheses the bounds and the certifier are stated under
(``Hypothesis``), whose ``require`` is the one place a request is refused
for its class.  The class checks are falsifiers, not provers: they can
refute a class on a grid but cannot certify it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .core import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    HypothesisError,
    Interval,
    TestFunction,
)

#: maximum bisection depth of the adaptive integrator
MAX_DEPTH = 60

#: panels are never accepted shallower than this, whatever the estimate says
_MIN_DEPTH = 2

#: points of the interval whose pairs the midpoint-convexity samplers test
CLASS_CHECK_GRID = 64

#: additive slack used by the midpoint-convexity samplers
CLASS_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    est_error: float
    evaluations: int


def integrate(f: Callable[[float], float], iv: Interval, tol: float) -> QuadratureResult:
    """Integrate f over iv to absolute tolerance tol.

    Adaptive Simpson with recursive bisection: each panel is accepted once
    the |S_halves - S_whole|/15 estimate fits its share of the error
    budget, and accepted panels get one Richardson correction.  The
    returned est_error (sum of accepted panel estimates) never exceeds
    tol.  Deterministic for fixed inputs.

    Raises:
        EvaluationError: f returned a non-finite value.
        ConvergenceError: some panel still misses its budget at depth 60.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")

    count = 0

    def feval(x: float) -> float:
        nonlocal count
        count += 1
        y = f(x)
        if not math.isfinite(y):
            raise EvaluationError(f"integrand returned {y} at x={x}")
        return y

    def recurse(a: float, b: float, fa: float, fm: float, fb: float,
                whole: float, budget: float, depth: int) -> tuple[float, float]:
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = feval(lm)
        frm = feval(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        if depth >= _MIN_DEPTH and abs(err) <= budget:
            return left + right + err, abs(err)
        if depth >= MAX_DEPTH:
            raise ConvergenceError(
                f"no convergence at depth {MAX_DEPTH} on [{a}, {b}] (budget {budget})")
        lv, le = recurse(a, m, fa, flm, fm, left, 0.5 * budget, depth + 1)
        rv, re = recurse(m, b, fm, frm, fb, right, 0.5 * budget, depth + 1)
        return lv + rv, le + re

    fa = feval(iv.a)
    fb = feval(iv.b)
    fm = feval(iv.midpoint)
    whole = iv.width / 6.0 * (fa + 4.0 * fm + fb)
    value, est = recurse(iv.a, iv.b, fa, fm, fb, whole, tol, 0)
    return QuadratureResult(value=value, est_error=est, evaluations=count)


def mean_value(fn: TestFunction, iv: Interval, tol: float = 1e-10) -> float:
    """(1/(b-a)) * integral of f over [a, b], accurate to tol."""
    res = integrate(fn.f, iv, tol * iv.width)
    return res.value / iv.width


def midpoint_gap(fn: TestFunction, iv: Interval, tol: float = 1e-10) -> float:
    """|mean value of f - f(midpoint)| over iv, accurate to tol."""
    return abs(mean_value(fn, iv, tol) - fn.f(iv.midpoint))


def _grid(iv: Interval, n: int) -> list[float]:
    step = iv.width / (n - 1)
    xs = [iv.a + i * step for i in range(n)]
    xs[-1] = iv.b
    return xs


def midpoint_convexity_holds(g: Callable[[float], float], iv: Interval) -> bool:
    """Sampling verdict: g((x+y)/2) <= (g(x)+g(y))/2 + tol over all grid pairs."""
    grid, tol = CLASS_CHECK_GRID, CLASS_CHECK_TOL  # locals: the pair loop is hot
    xs = _grid(iv, grid)
    gs = [g(x) for x in xs]
    for i in range(grid):
        for j in range(i + 1, grid):
            if g(0.5 * (xs[i] + xs[j])) > 0.5 * (gs[i] + gs[j]) + tol:
                return False
    return True


def midpoint_quasiconvexity_holds(g: Callable[[float], float], iv: Interval) -> bool:
    """Sampling verdict: g((x+y)/2) <= max(g(x), g(y)) + tol over all grid pairs."""
    grid, tol = CLASS_CHECK_GRID, CLASS_CHECK_TOL
    xs = _grid(iv, grid)
    gs = [g(x) for x in xs]
    for i in range(grid):
        for j in range(i + 1, grid):
            bigger = gs[i] if gs[i] > gs[j] else gs[j]
            if g(0.5 * (xs[i] + xs[j])) > bigger + tol:
                return False
    return True


def monotone_holds(g: Callable[[float], float], iv: Interval) -> bool:
    """Sampling verdict: g rises or falls over 65 evenly spaced points of iv
    (ends included), up to 1e-12 * max(1, max g) per step."""
    gs = [g(x) for x in _grid(iv, 65)]
    tol = 1e-12 * max(1.0, max(gs))
    steps = list(zip(gs, gs[1:]))
    return (all(hi >= lo - tol for lo, hi in steps)
            or all(hi <= lo + tol for lo, hi in steps))


def check_convex_abs_d2(fn: TestFunction, iv: Interval) -> bool:
    """True iff |f''| passes the 64-point midpoint-convexity sampling check on iv."""
    return midpoint_convexity_holds(lambda x: abs(fn.d2(x)), iv)


def check_quasiconvex_abs_d2(fn: TestFunction, iv: Interval) -> bool:
    """True iff |f''| passes the 64-point midpoint-quasi-convexity sampling check on iv."""
    return midpoint_quasiconvexity_holds(lambda x: abs(fn.d2(x)), iv)


@dataclass(frozen=True)
class Hypothesis:
    """A class for the magnitude of one derivative (a TestFunction attribute);
    a bound under it aggregates that derivative's endpoint magnitudes.

    ``check`` samples the class on an interval; it looks the sampler up
    when called, so a replaced module attribute is the one that runs.
    """

    derivative: str
    magnitude: str
    kind: str
    check: Callable[[TestFunction, Interval], bool]

    def require(self, fn: TestFunction, iv: Interval) -> None:
        """Raise DomainError when iv leaves fn's domain, HypothesisError
        when the sample refutes the class on iv."""
        if not fn.defined_on(iv):
            raise DomainError(f"[{iv.a}, {iv.b}] is outside the domain of {fn.id!r}")
        if not self.check(fn, iv):
            raise HypothesisError(f"class check failed: {self.magnitude} of {fn.id!r} "
                                  f"is not {self.kind} on [{iv.a}, {iv.b}]")


CONVEX_D2 = Hypothesis("d2", "|f''|", "convex",
                       lambda fn, iv: check_convex_abs_d2(fn, iv))
QUASICONVEX_D2 = Hypothesis("d2", "|f''|", "quasi-convex",
                            lambda fn, iv: check_quasiconvex_abs_d2(fn, iv))
MONOTONE_D2 = Hypothesis("d2", "|f''|", "monotone",
                         lambda fn, iv: monotone_holds(lambda x: abs(fn.d2(x)), iv))
CONVEX_D1 = Hypothesis("d1", "|f'|", "convex",
                       lambda fn, iv: midpoint_convexity_holds(lambda x: abs(fn.d1(x)), iv))
