"""Two-variable special means and the inequalities they satisfy.

The toolkit covers the arithmetic, geometric, harmonic, logarithmic,
identric and p-logarithmic means (the last with L_{-1} = L and L_0 = I as
limits), the chain H <= G <= L <= I <= A, and checkable inequalities for
the gaps |L_n^n - A^n|, |1/L - 1/A| and ln(A/I) generated by x^n, 1/x and
-ln x.  Each inequality is one of the bound formulas applied to its
generator's endpoint |f''| values: |n(n-1)| x^(n-2), 2/x^3 and 1/x^2.

Two of these constants are easy to get wrong, so the checkers pin them
down numerically:

* the monomial q=1 inequality needs (b-a)^2/24 with the endpoint mean;
  a tempting /48 variant fails at n=3 on [1, 2] (bound 0.1875 < gap
  0.375, an exact-equality case for /24), and that rejected value is
  recorded in each report's extras for comparison;
* the identric inequality bounds ln(A/I); the opposite orientation
  ln(I/A) is nonpositive since I <= A, which would make it vacuous.
"""

from __future__ import annotations

import math
import sys

from .bounds_convex import bound_convex_holder, bound_convex_powermean, bound_convex_q1
from .bounds_quasiconvex import bound_quasi_holder, bound_quasi_powermean
from .core import (
    BoundReport,
    ConjugatePair,
    DomainError,
    HypothesisError,
    Interval,
    TheoremId,
)

#: relative endpoint separation below which all means collapse to a
NEAR_EQUAL_REL = 1e-12

#: p-grid on which the p-logarithmic mean is checked to be nondecreasing
LP_MONOTONE_GRID = (-5.0, -4.0, -3.0, -2.0, -1.01, -1.0, -0.5, 0.0, 0.5,
                    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)

#: slack per step of L_p on LP_MONOTONE_GRID, relative to max(1, |L_p|)
LP_MONOTONE_TOL = 1e-12

#: slack per link of the mean chain H <= G <= L <= I <= A
CHAIN_TOL = 1e-12


def _validate(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"means need positive finite arguments, got ({a}, {b})")


def _near_equal(a: float, b: float) -> bool:
    return abs(b - a) < NEAR_EQUAL_REL * max(a, b)


def _normal(x: float) -> bool:
    """True iff x is a finite normal float: a product that neither
    overflowed nor underflowed."""
    return sys.float_info.min <= abs(x) <= sys.float_info.max


def arithmetic_mean(a: float, b: float) -> float:
    _validate(a, b)
    return 0.5 * (a + b)


def geometric_mean(a: float, b: float) -> float:
    _validate(a, b)
    if _near_equal(a, b):
        return a
    if not _normal(a * b):
        return math.sqrt(a) * math.sqrt(b)
    return math.sqrt(a * b)


def harmonic_mean(a: float, b: float) -> float:
    _validate(a, b)
    if _near_equal(a, b):
        return a
    if not _normal(2.0 * a * b):
        return 2.0 * a * (b / (a + b))
    return 2.0 * a * b / (a + b)


def logarithmic_mean(a: float, b: float) -> float:
    """(b-a)/(ln b - ln a) for a != b, a for coincident arguments."""
    _validate(a, b)
    if _near_equal(a, b):
        return a
    return (b - a) / (math.log(b) - math.log(a))


def identric_mean(a: float, b: float) -> float:
    """(1/e)(b^b/a^a)^(1/(b-a)), computed in log form for stability."""
    _validate(a, b)
    if _near_equal(a, b):
        return a
    return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)


def p_logarithmic_mean(a: float, b: float, p: float) -> float:
    """((b^(p+1)-a^(p+1))/((p+1)(b-a)))^(1/p); L_{-1} is L and L_0 is I.

    Nondecreasing in p for fixed arguments.
    """
    _validate(a, b)
    if p == -1.0:
        return logarithmic_mean(a, b)
    if p == 0.0:
        return identric_mean(a, b)
    if _near_equal(a, b):
        return a
    return ((b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * (b - a))) ** (1.0 / p)


def all_means(a: float, b: float) -> dict[str, float]:
    """All five named means of (a, b), keyed by kind; each lies between min and max."""
    return {"A": arithmetic_mean(a, b), "G": geometric_mean(a, b),
            "H": harmonic_mean(a, b), "L": logarithmic_mean(a, b),
            "I": identric_mean(a, b)}


def chain_check(a: float, b: float) -> bool:
    """True iff H <= G <= L <= I <= A holds within CHAIN_TOL slack per link."""
    vals = [harmonic_mean(a, b), geometric_mean(a, b), logarithmic_mean(a, b),
            identric_mean(a, b), arithmetic_mean(a, b)]
    return all(lo <= hi + CHAIN_TOL for lo, hi in zip(vals, vals[1:]))


def lp_values_on_grid(a: float, b: float) -> list[float]:
    return [p_logarithmic_mean(a, b, p) for p in LP_MONOTONE_GRID]


def lp_monotone_nondecreasing(a: float, b: float) -> bool:
    vals = lp_values_on_grid(a, b)
    return all(hi >= lo - LP_MONOTONE_TOL * max(1.0, abs(lo))
               for lo, hi in zip(vals, vals[1:]))


# --- inequality checkers -------------------------------------------------

def _validate_ordered(a: float, b: float) -> Interval:
    _validate(a, b)
    if not a < b:
        raise DomainError(f"need 0 < a < b, got ({a}, {b})")
    return Interval(a, b)


def _monomial_coefficient(n: int) -> int:
    if n != int(n):
        raise DomainError(f"monomial exponent must be an integer, got {n}")
    n = int(n)
    nn = abs(n * (n - 1))
    if nn < 3:
        raise HypothesisError(f"need |n(n-1)| >= 3, got n={n} with |n(n-1)|={nn}")
    return nn


def _monomial_gap(a: float, b: float, n: int) -> float:
    """|L_n^n - A^n|; L_n^n is the mean value of x^n over [a, b]."""
    mean_power = (b ** (n + 1) - a ** (n + 1)) / ((n + 1) * (b - a))
    return abs(mean_power - (0.5 * (a + b)) ** n)


def check_prop_monomial_q1(a: float, b: float, n: int) -> BoundReport:
    """|L_n^n - A^n| <= |n(n-1)| (b-a)^2/24 * A(a^(n-2), b^(n-2)).

    Equality for n = 3 (linear second derivative).  The report's extras
    carry the uncorrected /48 variant, which the same n = 3 case refutes.
    """
    iv = _validate_ordered(a, b)
    nn = _monomial_coefficient(n)
    n = int(n)
    gap = _monomial_gap(a, b, n)
    bound = bound_convex_q1(iv, nn * a ** (n - 2), nn * b ** (n - 2))
    literal = bound / 2.0  # the uncorrected (b-a)^2/48 constant
    return BoundReport.from_values(
        TheoremId.PROP_MONOMIAL_Q1, f"x^{n}", iv, bound, gap,
        extras={"literal_bound": literal, "literal_valid": literal >= gap},
    )


def check_prop_identric(a: float, b: float, pq: ConjugatePair) -> BoundReport:
    """ln(A/I) <= (b-a)^2/(8 a^2 b^2 (2p+1)^(1/p)) * A(a^2q, b^2q)^(1/q)."""
    iv = _validate_ordered(a, b)
    gap = math.log(arithmetic_mean(a, b) / identric_mean(a, b))
    bound = bound_convex_holder(iv, 1.0 / (a * a), 1.0 / (b * b), pq)
    return BoundReport.from_values(
        TheoremId.PROP_IDENTRIC, "-ln(x)", iv, bound, gap, exponent=pq)


def check_prop_monomial_pm(a: float, b: float, n: int, q: float) -> BoundReport:
    """|L_n^n - A^n| <= |n(n-1)| (b-a)^2/24 * A(a^q(n-2), b^q(n-2))^(1/q), q > 1."""
    iv = _validate_ordered(a, b)
    if not q > 1.0:
        raise DomainError(f"needs q > 1, got {q}")
    nn = _monomial_coefficient(n)
    n = int(n)
    gap = _monomial_gap(a, b, n)
    bound = bound_convex_powermean(iv, nn * a ** (n - 2), nn * b ** (n - 2), q)
    return BoundReport.from_values(
        TheoremId.PROP_MONOMIAL_PM, f"x^{n}", iv, bound, gap, exponent=q)


def check_prop_reciprocal_pm(a: float, b: float, q: float) -> BoundReport:
    """|1/L - 1/A| <= (b-a)^2/24 * 2^((q-1)/q)/(a^3 b^3) * (a^3q + b^3q)^(1/q), q > 1."""
    iv = _validate_ordered(a, b)
    if not q > 1.0:
        raise DomainError(f"needs q > 1, got {q}")
    gap = abs(1.0 / logarithmic_mean(a, b) - 1.0 / arithmetic_mean(a, b))
    bound = bound_convex_powermean(iv, 2.0 / a ** 3, 2.0 / b ** 3, q)
    return BoundReport.from_values(
        TheoremId.PROP_RECIPROCAL_PM, "1/x", iv, bound, gap, exponent=q)


def check_prop_reciprocal_quasi(a: float, b: float, q: float = 1.0) -> BoundReport:
    """|1/L - 1/A| <= (b-a)^2/24 * max(2/a^3, 2/b^3); independent of q >= 1."""
    iv = _validate_ordered(a, b)
    gap = abs(1.0 / logarithmic_mean(a, b) - 1.0 / arithmetic_mean(a, b))
    bound = bound_quasi_powermean(iv, 2.0 / a ** 3, 2.0 / b ** 3, q)
    return BoundReport.from_values(
        TheoremId.PROP_RECIPROCAL_QUASI, "1/x", iv, bound, gap, exponent=q)


def check_prop_monomial_quasi(a: float, b: float, n: int, pq: ConjugatePair) -> BoundReport:
    """|L_n^n - A^n| <= |n(n-1)| (b-a)^2/(8(2p+1)^(1/p)) * max(a^(n-2), b^(n-2))."""
    iv = _validate_ordered(a, b)
    nn = _monomial_coefficient(n)
    n = int(n)
    gap = _monomial_gap(a, b, n)
    bound = bound_quasi_holder(iv, nn * a ** (n - 2), nn * b ** (n - 2), pq)
    return BoundReport.from_values(
        TheoremId.PROP_MONOMIAL_QUASI, f"x^{n}", iv, bound, gap, exponent=pq)
