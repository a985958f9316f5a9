"""Ground-truth numerics the closed-form bounds are tested against.

Provides adaptive Gauss-Kronrod quadrature (G7K15 panels, as QUADPACK's
QK15; Piessens et al. 1983), the true midpoint gap, sampling-based
convexity, quasi-convexity and monotonicity verdicts, and the class
hypotheses the bounds and the certifier are stated under
(``Hypothesis``), whose ``require`` is the one place a request is refused
for its class.  The class checks are falsifiers, not provers: they can
refute a class on a grid but cannot certify it.

The convexity and quasi-convexity checks test every pair of a 64-point
grid at the pair's midpoint.  Those midpoints are the 127-point fine grid
a + k*width/126, so the checks of signed f'' and f''''
(``CONVEX_OR_CONCAVE_F2``, ``CONVEX_OR_CONCAVE_F4``), of |f''| for
quasi-convexity and of |f'| read the derivative there once,
127 evaluations, and test the pairs on those values.  The check of |f''|
for convexity (``CONVEX_D2``) still evaluates each pair's midpoint anew,
64 + 2,016 evaluations.
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

#: most G7K15 panels one integral may evaluate; ``exp`` over [0, 700] at
#: a tolerance below its rounding takes 4,405
MAX_PANELS = 2 ** 13

#: a panel whose |K15 - G7| is below this share of its K15 estimate of the
#: integral of |f| (a few ulp) is accepted whatever its budget: halving
#: cannot beat the rounding
_ROUNDING_FLOOR = 8e-16

#: the 15-point Kronrod rule on [-1, 1] (QUADPACK's QK15) as its seven
#: positive abscissae, descending, each with its Kronrod weight and its
#: weight in the 7-point Gauss rule (0.0 where it is not a Gauss node); the
#: centre 0 is a node of both rules
_NODES = (
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
)
_WK_CENTRE = 0.20948214108472782
_WG_CENTRE = 0.4179591836734694

#: points of the interval, a + k*width/63, whose pairs the class samplers
#: test; ``fine_grid_sample`` reads them and every pair's midpoint at once
CLASS_CHECK_GRID = 64

#: additive slack used by the midpoint-convexity samplers
CLASS_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    est_error: float
    evaluations: int


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """K15 over [a, b], its error estimate |K15 - G7| and the K15 estimate of
    the integral of |f|, from 15 evaluations of f."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    xs = [c] + [c - h * x for x, _, _ in _NODES] + [c + h * x for x, _, _ in _NODES]
    ys = [f(x) for x in xs]
    k15 = _WK_CENTRE * ys[0]
    g7 = _WG_CENTRE * ys[0]
    mass = _WK_CENTRE * abs(ys[0])
    for (_, wk, wg), lo, hi in zip(_NODES, ys[1:8], ys[8:]):
        k15 += wk * (lo + hi)
        g7 += wg * (lo + hi)
        mass += wk * (abs(lo) + abs(hi))
    # h * mass bounds |h * K15|: a finite one keeps an accepted value finite
    mass *= h
    if not math.isfinite(mass):
        for x, y in zip(xs, ys):
            if not math.isfinite(y):
                raise EvaluationError(f"integrand returned {y} at x={x}")
        raise OverflowError(f"the integral of |f| over the panel [{a}, {b}] overflows")
    return h * k15, h * abs(k15 - g7), mass


def integrate(f: Callable[[float], float], iv: Interval, tol: float) -> QuadratureResult:
    """Integrate f over iv to absolute tolerance tol.

    Adaptive Gauss-Kronrod: each G7K15 panel costs 15 evaluations, takes
    the Kronrod value K15 and the error estimate |K15 - G7|, and is
    accepted once that estimate fits its share of the error budget, or
    falls below a few ulp of the panel's K15 estimate of the integral of
    |f| (a tol below the rounding of the integral cannot be met).  A
    rejected panel is bisected depth-first and each half gets half its
    budget.  The value is the correctly rounded sum of the accepted
    panels; est_error, the sum of their estimates, stays within tol unless
    some panel was accepted at the rounding floor.  The rule is open: f is
    never evaluated at the ends of iv.  Deterministic for fixed inputs.

    Raises:
        EvaluationError: f returned a non-finite value.
        OverflowError: a panel's integral of |f| left the float range.
        ConvergenceError: bisecting a rejected panel would take the count
            of panels past MAX_PANELS.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    values: list[float] = []
    errors: list[float] = []
    pending = [(iv.a, iv.b, tol)]
    panels = 0
    while pending:
        a, b, budget = pending.pop()
        value, err, mass = _panel(f, a, b)
        panels += 1
        if err <= budget or err <= _ROUNDING_FLOOR * mass:
            values.append(value)
            errors.append(err)
            continue
        if panels + len(pending) + 2 > MAX_PANELS:
            raise ConvergenceError(
                f"no convergence within {MAX_PANELS} panels: [{a}, {b}] has error "
                f"estimate {err} against its budget {budget}")
        m = 0.5 * (a + b)
        pending.append((m, b, 0.5 * budget))
        pending.append((a, m, 0.5 * budget))
    return QuadratureResult(value=math.fsum(values), est_error=math.fsum(errors),
                            evaluations=15 * panels)


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


def fine_grid_sample(g: Callable[[float], float], iv: Interval) -> list[float]:
    """g at the 127 points a + k*width/126, ends included: the one read of g
    behind the fine-grid class checks.  Entry 2i is g at point i of the
    64-point class grid, bit for bit (width/126 is exactly half of
    width/63), and entry i + j is g at the midpoint of points i and j, the
    point off by at most 2 ulp of max(|a|, |b|)."""
    return [g(x) for x in _grid(iv, 2 * CLASS_CHECK_GRID - 1)]


def pairs_hold(fine: list[float], quasi: bool = False) -> bool:
    """Sampling verdict from a ``fine_grid_sample``: for every pair i < j of
    the 64-point grid, the midpoint value fine[i + j] is at most the pair's
    mean (convex) or larger value (quasi-convex), fine[2i] and fine[2j], plus
    tol.  The pairs of ``midpoint_convexity_holds``, read from the sample
    instead of evaluating each midpoint; a NaN value refutes nothing.

    Rounding x + tol is monotone in x, so max(u, v) + tol rounds to the
    larger of u + tol and v + tol, and the quasi-convex test compares each
    midpoint with both ends' sums instead of forming the max."""
    tol = CLASS_CHECK_TOL  # locals: the pair loop is hot
    gs = fine[::2]
    n = len(gs)
    if quasi:
        tops = [g + tol for g in gs]
        for i, ti in enumerate(tops):
            for mid, tj in zip(fine[2 * i + 1:i + n], tops[i + 1:]):
                if mid > ti and mid > tj:
                    return False
        return True
    for i, gi in enumerate(gs):
        for mid, gj in zip(fine[2 * i + 1:i + n], gs[i + 1:]):
            if mid > 0.5 * (gi + gj) + tol:
                return False
    return True


def convexity_sign(fine: list[float]) -> int:
    """Sampling verdict on the sign of g's bend, from a ``fine_grid_sample``
    of g (the pair midpoints of the 64-point grid, ends included): 1 when no
    point lies above the chord of its neighbours by more than tol (convex
    g), -1 when none lies below it by more than tol (concave g), 0 when both
    are refuted.  When every bend is within tol, so both stay open, the sign
    of their sum decides: it telescopes to half the fall in slope across the
    grid, (g1 - g0) - (g126 - g125), and a tie goes convex."""
    tol = CLASS_CHECK_TOL
    bends = [mid - 0.5 * (lo + hi) for lo, mid, hi in zip(fine, fine[1:], fine[2:])]
    convex = all(bend <= tol for bend in bends)
    concave = all(bend >= -tol for bend in bends)
    if convex and concave:
        return -1 if (fine[1] - fine[0]) - (fine[-1] - fine[-2]) > 0.0 else 1
    return 1 if convex else -1 if concave else 0


def signed_convexity_holds(g: Callable[[float], float], iv: Interval) -> bool:
    """True iff g or -g passes the midpoint-convexity pair check on iv, for
    the one sign that ``convexity_sign`` leaves open; both verdicts come
    from one ``fine_grid_sample`` of g."""
    fine = fine_grid_sample(g, iv)
    sign = convexity_sign(fine)
    if sign == 0:
        return False
    return pairs_hold(fine if sign > 0 else [-v for v in fine])


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
    """True iff |f''| passes the 64-point midpoint-quasi-convexity sampling
    check on iv, read from one fine-grid sample."""
    return pairs_hold(fine_grid_sample(lambda x: abs(fn.d2(x)), iv), quasi=True)


@dataclass(frozen=True)
class Hypothesis:
    """A class for one derivative (a TestFunction attribute), or for its
    magnitude; a bound under it aggregates that derivative's endpoint
    magnitudes.

    ``check`` samples the class on an interval; it looks the sampler up
    when called, so a replaced module attribute is the one that runs.
    """

    derivative: str
    magnitude: str
    kind: str
    check: Callable[[TestFunction, Interval], bool]

    def require(self, fn: TestFunction, iv: Interval) -> None:
        """Raise DomainError when iv leaves fn's domain, HypothesisError
        when fn declares no such derivative (an optional ``d4`` left None)
        or the sample refutes the class on iv."""
        if not fn.defined_on(iv):
            raise DomainError(f"[{iv.a}, {iv.b}] is outside the domain of {fn.id!r}")
        if getattr(fn, self.derivative) is None:
            raise HypothesisError(f"class check failed: {fn.id!r} declares no "
                                  f"{self.magnitude}")
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
                       lambda fn, iv: pairs_hold(fine_grid_sample(lambda x: abs(fn.d1(x)), iv)))
#: signed f'' convex or concave, the class of Fejer's bracket; the pair
#: check runs for the one sign the fine grid's bends leave open
CONVEX_OR_CONCAVE_F2 = Hypothesis("d2", "f''", "convex or concave",
                                  lambda fn, iv: signed_convexity_holds(fn.d2, iv))
#: signed f'''' convex or concave, the class of the corrected rule's bracket
CONVEX_OR_CONCAVE_F4 = Hypothesis("d4", "f''''", "convex or concave",
                                  lambda fn, iv: signed_convexity_holds(fn.d4, iv))
