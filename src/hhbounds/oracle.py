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
127 evaluations, and test the pairs on those values, taking the magnitude
after the read.  The check of |f''| for convexity (``CONVEX_D2``) still
evaluates each pair's midpoint anew, 64 + 2,016 evaluations of f'': it
calls f'' directly and takes the magnitude in its loop.  The check of
|f''| for monotonicity (``MONOTONE_D2``) reads f'' on the same 64-point
grid and tests its 63 steps.

The class decision is stated once: one grid, ``CLASS_CHECK_GRID``, one
read, of the derivative itself with the magnitude taken after it, one
slack, ``_slack``: ``CLASS_CHECK_REL`` = 2^-44 times the largest |value|
among the sample's 64 grid values, and one rule for a value that is not a
finite float: it refutes the class.  A NaN or an infinity on the grid
makes the slack NaN, and every test asks a comparison to hold (``mid <=
threshold``), so a NaN in the value, the threshold or the slack refutes.
Scaling g by 2^j scales every value and the slack exactly, so no verdict
depends on g's units.

The pairs i + j = s of one anti-diagonal share their midpoint, so the
sample refutes s iff that value is above the least of their thresholds.
When the 64 grid values are convex in real arithmetic (every second
difference is >= 0, a sign ``math.fsum`` gets exactly), g_i + g_{s-i} is
convex and symmetric in i, so it is least at the innermost pair, and the
threshold, a chain of monotone roundings of that sum, is least there too.
When g + tol falls weakly to a least value and then rises weakly, the
larger end of a pair is least at the innermost pair as well.  So
``pairs_hold`` decides such samples on the 125 innermost pairs, with the
verdict of all 2,016, and tests every pair of any other sample; one loop
per class runs over either pair list.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat

from .core import (
    GAP_TOL,
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

#: the class samplers' slack relative to the largest |value| G of the
#: sample's class grid (``_slack``): 2^-44 = 512 u, u = 2^-53.  A value
#: within ``certifier.ULPS`` = 2 ulp of the exact one is off by at most
#: 4u G, so the values of one bend, mid - (lo + hi)/2, or of one step,
#: hi - lo, are off by at most 8u G together, and the bend's few roundings
#: (the sum, the half, adding the slack) by about 3u G more; 512 u leaves a
#: factor above 40.  It holds no term for the rounding of the nodes, about
#: |g'| ulp(x): that can refute a true class on a very narrow interval,
#: but a term for it would pass false classes where |x| is large
CLASS_CHECK_REL = 2.0 ** -44


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    est_error: float
    evaluations: int


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """K15 over [a, b], its error estimate |K15 - G7| and the K15 estimate of
    the integral of |f|, from 15 evaluations of f in one pass: the centre,
    then each node pair c - h*x, c + h*x, added to the three sums as read."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = f(c)
    k15, g7, mass = _WK_CENTRE * y, _WG_CENTRE * y, _WK_CENTRE * abs(y)
    for x, wk, wg in _NODES:
        hx = h * x
        lo, hi = f(c - hx), f(c + hx)
        pair = lo + hi
        k15 += wk * pair
        g7 += wg * pair
        mass += wk * (abs(lo) + abs(hi))
    # h * mass bounds |h * K15|: a finite one keeps an accepted value finite
    mass *= h
    if not math.isfinite(mass):
        # no value was kept: read the nodes again, in the same order, to
        # name one where f is not finite
        for x in chain([c], *((c - h * t, c + h * t) for t, _, _ in _NODES)):
            y = f(x)
            if not math.isfinite(y):
                raise EvaluationError(f"integrand returned {y} at x={x}")
        raise EvaluationError(f"the K15 sums of the panel [{a}, {b}] are past the float range")
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
        EvaluationError: f returned a non-finite value, or a panel's K15
            sums (of f, or of |f| times the half-width) left the float range
            though every value of f is a float.
        ConvergenceError: bisecting a rejected panel would take the count
            of panels past MAX_PANELS.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    a, b = iv.a, iv.b
    value, err, mass = _panel(f, a, b)
    if err <= tol or err <= _ROUNDING_FLOOR * mass:
        # one panel, as most calls take: the value is math.fsum([value]) bit
        # for bit, since fsum and adding 0.0 both turn -0.0 into 0.0
        return QuadratureResult(value + 0.0, err, 15)
    values: list[float] = []
    errors: list[float] = []
    # the rejected first panel's halves, as the loop bisects a panel
    m = 0.5 * (a + b)
    pending = [(m, b, 0.5 * tol), (a, m, 0.5 * tol)]
    panels = 1
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
    return QuadratureResult(math.fsum(values), math.fsum(errors), 15 * panels)


def mean_value(fn: TestFunction, iv: Interval) -> float:
    """(1/(b-a)) * integral of f over [a, b], accurate to ``GAP_TOL``.  The
    integral's tolerance GAP_TOL * (b-a) is floored at the least positive
    float, which the oracle takes, so an interval too narrow for the
    product (below about 2.5e-314) still has a mean value."""
    width = iv.width
    return integrate(fn.f, iv, max(GAP_TOL * width, math.ulp(0.0))).value / width


def midpoint_gap(fn: TestFunction, iv: Interval) -> float:
    """|mean value of f - f(midpoint)| over iv, accurate to ``GAP_TOL``."""
    return abs(mean_value(fn, iv) - fn.f(iv.midpoint))


def _slack(gs: list[float]) -> float:
    """The class samplers' one slack: ``CLASS_CHECK_REL`` times the largest
    |g| of the class grid's values gs, NaN when one is not finite, so that
    every test refutes.  ``max`` and ``-min`` give the largest |g| without
    a Python call per value."""
    top = max(max(gs), -min(gs))
    return CLASS_CHECK_REL * top if all(map(math.isfinite, gs)) else math.nan


def _grid(iv: Interval, n: int) -> list[float]:
    a, b = iv.a, iv.b
    step = (b - a) / (n - 1)
    xs = [a + i * step for i in range(n)]
    xs[-1] = b
    return xs


def midpoint_convexity_holds(d: Callable[[float], float], iv: Interval) -> bool:
    """Sampling verdict on the magnitude of d: |d((x+y)/2)| <= (|d(x)| +
    |d(y)|)/2 + tol over all grid pairs, d read at the 64 grid points, then
    anew at each pair's midpoint, row by row, until the first refuted pair;
    tol is the grid values' ``_slack``.  Taking abs here, not in a wrapper
    around d, saves a Python call per read."""
    grid = CLASS_CHECK_GRID  # a local: the pair loop is hot
    xs = _grid(iv, grid)
    gs = [abs(d(x)) for x in xs]
    tol = _slack(gs)
    for i in range(grid):
        xi, gi = xs[i], gs[i]
        for j in range(i + 1, grid):
            if not abs(d(0.5 * (xi + xs[j]))) <= 0.5 * (gi + gs[j]) + tol:
                return False
    return True


def fine_grid_sample(g: Callable[[float], float], iv: Interval) -> list[float]:
    """g at the 127 points a + k*width/126, ends included: the one read of g
    behind the fine-grid class checks.  Entry 2i is g at point i of the
    64-point class grid, bit for bit (width/126 is exactly half of
    width/63), and entry i + j is g at the midpoint of points i and j, the
    point off by at most 2 ulp of max(|a|, |b|)."""
    return [g(x) for x in _grid(iv, 2 * CLASS_CHECK_GRID - 1)]


def _convex(gs: list[float]) -> bool:
    """True when gs is convex in real arithmetic: every second difference
    g[k-1] + g[k+1] - 2 g[k] is >= 0, its sign exact through ``math.fsum``
    (the doubling is exact).  False on a non-finite value or an overflow
    in the doubling or in ``fsum``."""
    try:
        return math.isfinite(math.fsum(gs)) and min(map(
            math.fsum, zip(gs, gs[2:], [-2.0 * g for g in gs[1:-1]]))) >= 0.0
    except (OverflowError, ValueError):  # an intermediate overflow; inf - inf
        return False


def _valley(tops: list[float]) -> bool:
    """True when tops falls weakly to a least value, then rises weakly:
    a quasi-convex sequence.  Comparisons only, so a NaN makes it False."""
    k, n = 1, len(tops)
    while k < n and tops[k] <= tops[k - 1]:
        k += 1
    while k < n and tops[k] >= tops[k - 1]:
        k += 1
    return k == n


def _innermost_pairs(fine: list[float], ends: list[float]) -> Iterator[tuple[float, ...]]:
    """(fine[s], ends[i], ends[j]) for each s = 1 ... len(fine) - 2 and its
    innermost pair j = s//2 + 1, i = s - j of the class grid: the
    neighbours k, k + 1 for s = 2k + 1, and k - 1, k + 1 for s = 2k."""
    return chain(zip(fine[1::2], ends, ends[1:]), zip(fine[2:-1:2], ends, ends[2:]))


def _all_pairs(fine: list[float], ends: list[float]) -> Iterator[tuple[float, ...]]:
    """(fine[i + j], ends[i], ends[j]) for every pair i < j of the class
    grid, row by row: row i is fine[2i + 1 : i + n] beside ends[i + 1:]."""
    n = len(ends)
    return chain.from_iterable(zip(fine[2 * i + 1:i + n], repeat(ei), ends[i + 1:])
                               for i, ei in enumerate(ends))


def pairs_hold(fine: list[float], quasi: bool = False) -> bool:
    """Sampling verdict from a ``fine_grid_sample``: for every pair i < j of
    the 64-point grid, the midpoint value fine[i + j] is at most the pair's
    mean (convex) or larger value (quasi-convex), fine[2i] and fine[2j], plus
    tol, the grid values' ``_slack``.  The pairs of
    ``midpoint_convexity_holds``, read from the sample instead of
    evaluating each midpoint.

    Rounding x + tol is monotone in x, so max(u, v) + tol rounds to the
    larger of u + tol and v + tol, and the quasi-convex test compares each
    midpoint with both ends' sums instead of forming the max.

    The pairs of one anti-diagonal i + j = s share their midpoint value,
    so s is refuted iff fine[s] exceeds the least threshold over its pairs.
    The 125 innermost pairs (``_innermost_pairs``) give the verdict of all
    2,016 when the sample lets the least threshold be named:
      - convex: the threshold 0.5 (g_i + g_j) + tol is made of roundings,
        each monotone, of the exact sum g_i + g_j.  When the grid values g
        are convex in real arithmetic (``_convex``), so is i -> g_i +
        g_{s-i}, and it is symmetric about s/2; so it falls as i moves in
        towards s/2, and the least sum, hence the least threshold, is the
        innermost pair's;
      - quasi-convex: when tops = g + tol falls weakly to a least value,
        then rises weakly (``_valley``), every tops_k with i <= k <= s - i
        is at most max(tops_i, tops_{s-i}), so that max is least at the
        innermost pair; comparisons are exact, infinities included.
    Any other sample (an overflow, one that is neither, or one with a
    non-finite grid value, whose NaN slack refutes its first pair) tests
    every pair (``_all_pairs``).  Either way one loop per class tests the
    pairs: a plain ``for`` is faster here than ``all`` over a generator."""
    gs = fine[::2]
    tol = _slack(gs)
    if quasi:
        tops = [g + tol for g in gs]
        for mid, ti, tj in (_innermost_pairs if _valley(tops) else _all_pairs)(fine, tops):
            if not (mid <= ti or mid <= tj):
                return False
        return True
    for mid, gi, gj in (_innermost_pairs if _convex(gs) else _all_pairs)(fine, gs):
        if not mid <= 0.5 * (gi + gj) + tol:
            return False
    return True


def convexity_sign(fine: list[float]) -> int:
    """Sampling verdict on the sign of g's bend, from a ``fine_grid_sample``
    of g (the pair midpoints of the 64-point grid, ends included): 1 when no
    point lies above the chord of its neighbours by more than tol (convex
    g), -1 when none lies below it by more than tol (concave g), 0 when both
    are refuted; tol is the class grid values' ``_slack``.  When every bend
    is within tol, so both stay open, the sign of their sum decides: it
    telescopes to half the fall in slope across the grid, (g1 - g0) -
    (g126 - g125), and a tie goes convex."""
    tol = _slack(fine[::2])
    bends = [mid - 0.5 * (lo + hi) for lo, mid, hi in zip(fine, fine[1:], fine[2:])]
    convex = all(bend <= tol for bend in bends)
    concave = all(bend >= -tol for bend in bends)
    if convex and concave:
        return -1 if (fine[1] - fine[0]) - (fine[-1] - fine[-2]) > 0.0 else 1
    return 1 if convex else -1 if concave else 0


def signed_convexity_holds(g: Callable[[float], float], iv: Interval) -> bool:
    """True iff g or -g passes the midpoint-convexity pair check on iv, for
    the one sign that ``convexity_sign`` leaves open, both read from one
    ``fine_grid_sample`` of g.  Negating keeps each verdict's slack bit for
    bit: max(max g, -min g) is symmetric in g and -g."""
    fine = fine_grid_sample(g, iv)
    sign = convexity_sign(fine)
    return sign != 0 and pairs_hold(fine if sign > 0 else [-v for v in fine])


def monotone_holds(d: Callable[[float], float], iv: Interval) -> bool:
    """Sampling verdict on the magnitude of d: |d| rises or falls over the
    64-point class grid, up to the grid values' ``_slack`` per step."""
    gs = [abs(d(x)) for x in _grid(iv, CLASS_CHECK_GRID)]
    tol = _slack(gs)
    # each step hi >= lo - tol (rises) or hi <= lo + tol (falls), compared
    # in C against the thresholds; a NaN fails both
    his = gs[1:]
    return (all(map(operator.ge, his, [lo - tol for lo in gs]))
            or all(map(operator.le, his, [lo + tol for lo in gs])))


def check_convex_abs_d2(fn: TestFunction, iv: Interval) -> bool:
    """True iff |f''| passes the 64-point midpoint-convexity sampling check on iv."""
    return midpoint_convexity_holds(fn.d2, iv)


def check_quasiconvex_abs_d2(fn: TestFunction, iv: Interval) -> bool:
    """True iff |f''| passes the 64-point midpoint-quasi-convexity sampling
    check on iv, read from one fine-grid sample."""
    return pairs_hold(list(map(abs, fine_grid_sample(fn.d2, iv))), quasi=True)


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """A class for one derivative (a TestFunction attribute), or for its
    magnitude; a bound under it aggregates that derivative's endpoint
    magnitudes.

    ``check`` samples the class on an interval; it looks the sampler up
    when called, so a replaced module attribute is the one that runs.
    Each hypothesis is one module constant, so it compares and hashes by
    identity, and a sweep's per-interval lookups call no generated hash.
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
                         lambda fn, iv: monotone_holds(fn.d2, iv))
CONVEX_D1 = Hypothesis("d1", "|f'|", "convex",
                       lambda fn, iv: pairs_hold(list(map(abs, fine_grid_sample(fn.d1, iv)))))
#: signed f'' convex or concave, the class of Fejer's bracket; the pair
#: check runs for the one sign the fine grid's bends leave open
CONVEX_OR_CONCAVE_F2 = Hypothesis("d2", "f''", "convex or concave",
                                  lambda fn, iv: signed_convexity_holds(fn.d2, iv))
#: signed f'''' convex or concave, the class of the corrected rule's bracket
CONVEX_OR_CONCAVE_F4 = Hypothesis("d4", "f''''", "convex or concave",
                                  lambda fn, iv: signed_convexity_holds(fn.d4, iv))
