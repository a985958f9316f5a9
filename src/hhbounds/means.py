"""Two-variable special means and the inequalities they satisfy.

The toolkit covers the arithmetic, geometric, harmonic, logarithmic,
identric and p-logarithmic means (the last with L_{-1} = L and L_0 = I as
limits), the chain H <= G <= L <= I <= A, and checkable inequalities for
the gaps |L_n^n - A^n|, |1/L - 1/A| and ln(A/I) generated by x^n, 1/x and
-ln x.  Each inequality is one of the bound formulas applied to its
generator's endpoint |f''| values: |n(n-1)| x^(n-2), 2/x^3 and 1/x^2,
through one path, ``_report``, which refuses a gap or a bound past the
float range with EvaluationError.

L, I, L_p and the mean value L_n^n of x^n all come from one routine,
``_mean_power``, written in the log-ratio r = ln(hi/lo) and the relative
steps of the pair.  They stay within a few ulps of the exact values from
nearly equal arguments to arguments at opposite ends of the float range,
and only exactly equal arguments are a special case: every mean returns
them.  The chain and the monotonicity of L_p in p are checked by one
ordering rule with the relative slack ORDER_TOL.

Two of these constants are easy to get wrong, so the checkers pin them
down numerically:

* the monomial q=1 inequality needs (b-a)^2/24 with the endpoint mean;
  a tempting /48 variant fails at n=3 on [1, 2], an exact-equality case
  for /24, where half the bound is below the gap;
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
    EvaluationError,
    HypothesisError,
    Interval,
    TheoremId,
)

#: p-grid on which the p-logarithmic mean is checked to be nondecreasing
LP_MONOTONE_GRID = (-5.0, -4.0, -3.0, -2.0, -1.01, -1.0, -0.5, 0.0, 0.5,
                    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)

#: slack per step of an ordering check (the mean chain, L_p along
#: LP_MONOTONE_GRID), relative to max(1, |smaller value|)
ORDER_TOL = 1e-12


def _validate(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"means need positive finite arguments, got ({a}, {b})")


def _normal(x: float) -> bool:
    """True iff x is a finite normal float: a product that neither
    overflowed nor underflowed."""
    return sys.float_info.min <= abs(x) <= sys.float_info.max


def arithmetic_mean(a: float, b: float) -> float:
    _validate(a, b)
    mean = 0.5 * (a + b)
    if math.isinf(mean):  # a + b overflowed
        return 0.5 * a + 0.5 * b
    return mean


def geometric_mean(a: float, b: float) -> float:
    _validate(a, b)
    if a == b:
        return a
    if not _normal(a * b):
        return math.sqrt(a) * math.sqrt(b)
    return math.sqrt(a * b)


def harmonic_mean(a: float, b: float) -> float:
    _validate(a, b)
    if a == b:
        return a
    if not _normal(2.0 * a * b):
        return min(a, b) * (max(a, b) / arithmetic_mean(a, b))
    return 2.0 * a * b / (a + b)


def logarithmic_mean(a: float, b: float) -> float:
    """(b-a)/(ln b - ln a) for a != b, a for coincident arguments: L_{-1}."""
    return p_logarithmic_mean(a, b, -1.0)


def identric_mean(a: float, b: float) -> float:
    """(1/e)(b^b/a^a)^(1/(b-a)) for a != b, a for coincident arguments: L_0."""
    return p_logarithmic_mean(a, b, 0.0)


def _mean_power(a: float, b: float, p: float) -> tuple[float, float]:
    """(c, m) with L_p(a, b) = c m^(1/p) for a != b, so that L_p^p, the
    mean value of x^p over [a, b], is c^p m.

    With lo < hi, every case is written in the relative step
    t = (hi-lo)/lo and the log-ratio r = ln(hi/lo) = log1p(t), so no
    difference of nearly equal powers or logarithms is ever taken:

    * L = (hi-lo)/r and I = hi exp(r/t - 1), each as c with m = 1;
    * c = hi and m = -expm1(-(p+1)r)/((p+1)s) for p > -1, with the other
      relative step s = (hi-lo)/hi;
    * c = lo and m = expm1((p+1)r)/((p+1)t) for p < -1.  This m lies near
      1/t, so it leaves the normal range when hi/lo passes about 1e307.
      m then keeps only the numerator, and c takes the rest as powers of
      hi - lo and of lo, the split a sum of logarithms would give.

    hi - lo is exact for close arguments (Sterbenz), and t overflows only
    when hi/lo does; r is then ln hi - ln lo, which cannot cancel there.
    """
    lo, hi = min(a, b), max(a, b)
    t = (hi - lo) / lo
    r = math.log1p(t) if t < math.inf else math.log(hi) - math.log(lo)
    if p == -1.0:
        return (hi - lo) / r, 1.0
    if p == 0.0:
        return hi * math.exp(r / t - 1.0), 1.0
    if p > -1.0:
        return hi, -math.expm1(-(p + 1.0) * r) / ((p + 1.0) * ((hi - lo) / hi))
    x = math.expm1((p + 1.0) * r) / (p + 1.0)
    if _normal(x / t):
        return lo, x / t
    return (hi - lo) ** (-1.0 / p) * lo ** (1.0 + 1.0 / p), x


def p_logarithmic_mean(a: float, b: float, p: float) -> float:
    """((b^(p+1)-a^(p+1))/((p+1)(b-a)))^(1/p); L_{-1} is L and L_0 is I.

    Nondecreasing in p for fixed arguments.  Computed by ``_mean_power``,
    accurate from nearly equal arguments to opposite ends of the float
    range.
    """
    _validate(a, b)
    if a == b:
        return a
    c, m = _mean_power(a, b, p)
    return c if m == 1.0 else c * m ** (1.0 / p)  # L and I come with m = 1; 1^(1/p) = 1


def all_means(a: float, b: float) -> dict[str, float]:
    """All five named means of (a, b), keyed by kind; each lies between min and max."""
    return {"A": arithmetic_mean(a, b), "G": geometric_mean(a, b),
            "H": harmonic_mean(a, b), "L": logarithmic_mean(a, b),
            "I": identric_mean(a, b)}


def nondecreasing(values: list[float]) -> bool:
    """True iff each value is at least its predecessor, up to ORDER_TOL:
    the one ordering rule."""
    return all(hi >= lo - ORDER_TOL * max(1.0, abs(lo))
               for lo, hi in zip(values, values[1:]))


def chain_holds(mean_of: dict[str, float]) -> bool:
    """True iff H <= G <= L <= I <= A holds among the means of one pair, as
    ``all_means`` keys them, each link up to ORDER_TOL."""
    return nondecreasing([mean_of[kind] for kind in "HGLIA"])


def chain_check(a: float, b: float) -> bool:
    """True iff H <= G <= L <= I <= A holds, each link up to ORDER_TOL."""
    return chain_holds(all_means(a, b))


def lp_values_on_grid(a: float, b: float) -> list[float]:
    return [p_logarithmic_mean(a, b, p) for p in LP_MONOTONE_GRID]


def lp_monotone_nondecreasing(a: float, b: float) -> bool:
    return nondecreasing(lp_values_on_grid(a, b))


# --- inequality checkers -------------------------------------------------

#: the two propositions the paper states for q > 1 only
_Q_ABOVE_ONE = (TheoremId.PROP_MONOMIAL_PM, TheoremId.PROP_RECIPROCAL_PM)


def _report(theorem: TheoremId, a: float, b: float, exponent, generator, formula,
            *n: int) -> BoundReport:
    """``theorem``'s report on [a, b]: ``formula`` applied to ``generator``'s
    endpoint |f''| (and to ``exponent`` where it takes one), against its gap.

    Refuses the pair, then q where the paper asks q > 1, then n.  A gap or
    bound past the float range bounds nothing, nor does one whose generator
    or formula overflowed or divided by a power that underflowed to 0, nor
    one from an endpoint |f''| of 0.0: every generator's exact |f''| is
    nonzero on a > 0, so that value underflowed.  Each raises
    EvaluationError, worded as ``suites._bound_past_range`` words it.
    """
    _validate(a, b)
    iv = Interval(a, b)
    if theorem in _Q_ABOVE_ONE and not exponent > 1.0:
        raise DomainError(f"needs q > 1, got {exponent}")
    try:
        label, gap, *d2 = generator(a, b, *n)
        bound = formula(iv, *d2) if exponent is None else formula(iv, *d2, exponent)
        if 0.0 in d2:
            bound = math.inf
    except (OverflowError, ZeroDivisionError):
        gap = bound = math.inf
    if not (math.isfinite(gap) and math.isfinite(bound)):
        raise EvaluationError(
            f"the {theorem.value} bound on [{a}, {b}] is past the float range")
    return BoundReport(theorem, label, iv, bound, gap, exponent)


# the generators: each returns (label, closed-form gap, |f''(a)|, |f''(b)|)

def _monomial(a: float, b: float, n: int) -> tuple[str, float, float, float]:
    """x^n: gap |L_n^n - A^n| (L_n^n is the mean value of x^n over [a, b])
    and |f''| = |n(n-1)| x^(n-2), for an integer n with |n(n-1)| >= 3."""
    if not float(n).is_integer():  # NaN and infinities fail too
        raise DomainError(f"monomial exponent must be an integer, got {n}")
    n = int(n)
    nn = abs(n * (n - 1))
    if nn < 3:
        raise HypothesisError(f"need |n(n-1)| >= 3, got n={n} with |n(n-1)|={nn}")
    c, m = _mean_power(a, b, n)
    gap = abs(c ** n * m - (0.5 * (a + b)) ** n)
    return f"x^{n}", gap, nn * a ** (n - 2), nn * b ** (n - 2)


def _reciprocal(a: float, b: float) -> tuple[str, float, float, float]:
    """1/x: gap |1/L - 1/A| and |f''| = 2/x^3."""
    gap = abs(1.0 / logarithmic_mean(a, b) - 1.0 / arithmetic_mean(a, b))
    return "1/x", gap, 2.0 / a ** 3, 2.0 / b ** 3


def _neg_log(a: float, b: float) -> tuple[str, float, float, float]:
    """-ln x: gap ln(A/I) and |f''| = 1/x^2."""
    gap = math.log(arithmetic_mean(a, b) / identric_mean(a, b))
    return "-ln(x)", gap, 1.0 / (a * a), 1.0 / (b * b)


def check_prop_monomial_q1(a: float, b: float, n: int) -> BoundReport:
    """|L_n^n - A^n| <= |n(n-1)| (b-a)^2/24 * A(a^(n-2), b^(n-2)).

    Equality for n = 3 (linear second derivative), where the uncorrected
    /48 constant would give half the gap.
    """
    return _report(TheoremId.PROP_MONOMIAL_Q1, a, b, None, _monomial, bound_convex_q1, n)


def check_prop_identric(a: float, b: float, pq: ConjugatePair) -> BoundReport:
    """ln(A/I) <= (b-a)^2/(8 a^2 b^2 (2p+1)^(1/p)) * A(a^2q, b^2q)^(1/q)."""
    return _report(TheoremId.PROP_IDENTRIC, a, b, pq, _neg_log, bound_convex_holder)


def check_prop_monomial_pm(a: float, b: float, n: int, q: float) -> BoundReport:
    """|L_n^n - A^n| <= |n(n-1)| (b-a)^2/24 * A(a^q(n-2), b^q(n-2))^(1/q), q > 1."""
    return _report(TheoremId.PROP_MONOMIAL_PM, a, b, q, _monomial, bound_convex_powermean, n)


def check_prop_reciprocal_pm(a: float, b: float, q: float) -> BoundReport:
    """|1/L - 1/A| <= (b-a)^2/24 * 2^((q-1)/q)/(a^3 b^3) * (a^3q + b^3q)^(1/q), q > 1."""
    return _report(TheoremId.PROP_RECIPROCAL_PM, a, b, q, _reciprocal, bound_convex_powermean)


def check_prop_reciprocal_quasi(a: float, b: float, q: float = 1.0) -> BoundReport:
    """|1/L - 1/A| <= (b-a)^2/24 * max(2/a^3, 2/b^3); independent of q >= 1."""
    return _report(TheoremId.PROP_RECIPROCAL_QUASI, a, b, q, _reciprocal, bound_quasi_powermean)


def check_prop_monomial_quasi(a: float, b: float, n: int, pq: ConjugatePair) -> BoundReport:
    """|L_n^n - A^n| <= |n(n-1)| (b-a)^2/(8(2p+1)^(1/p)) * max(a^(n-2), b^(n-2))."""
    return _report(TheoremId.PROP_MONOMIAL_QUASI, a, b, pq, _monomial, bound_quasi_holder, n)
