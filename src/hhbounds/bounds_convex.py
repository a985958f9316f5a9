"""Midpoint-gap bounds for functions whose |f''|^q is convex.

Three second-derivative bounds (arithmetic mean, Hoelder, power mean) plus
the older first-derivative baselines they are compared against.  All take
endpoint derivative magnitudes as plain numbers, so the same formulas serve
the bound table in ``suites`` and the special-means inequalities.
"""

from __future__ import annotations

from .core import ConjugatePair, DomainError, Interval


def power_mean(x: float, y: float, q: float) -> float:
    """q-power mean ((x^q + y^q)/2)^(1/q) of two nonnegative numbers.

    Nondecreasing in q; scaled by max(x, y) so large exponents cannot
    overflow.
    """
    if x < 0.0 or y < 0.0:
        raise DomainError(f"power mean needs nonnegative inputs, got ({x}, {y})")
    if q < 1.0:
        raise DomainError(f"power mean exponent must be >= 1, got {q}")
    if q == 1.0:
        return 0.5 * (x + y)
    m = max(x, y)
    if m == 0.0:
        return 0.0
    r = min(x, y) / m
    return m * (0.5 * (1.0 + r ** q)) ** (1.0 / q)


def _check_nonneg(va: float, vb: float) -> None:
    if va < 0.0 or vb < 0.0:
        raise DomainError(f"endpoint derivative magnitudes must be nonnegative, got ({va}, {vb})")


def _prefactor_24(iv: Interval) -> float:
    """(b-a)^2/24, the prefactor of the mean, power-mean and max bounds."""
    return iv.width * iv.width / 24.0


def _holder_denominator(p: float) -> float:
    return 8.0 * (2.0 * p + 1.0) ** (1.0 / p)


def _prefactor_holder(iv: Interval, pq: ConjugatePair) -> float:
    """(b-a)^2 / (8 (2p+1)^(1/p)), the prefactor of the Hoelder bounds."""
    return iv.width * iv.width / _holder_denominator(pq.p)


def bound_convex_q1(iv: Interval, d2a: float, d2b: float) -> float:
    """(b-a)^2/24 times the endpoint mean of |f''|.

    Valid when |f''| is convex on the interval; attained exactly by any f
    with linear f'' of constant sign (quadratics, one-signed cubics).
    """
    _check_nonneg(d2a, d2b)
    return _prefactor_24(iv) * (0.5 * (d2a + d2b))


def bound_convex_holder(iv: Interval, d2a: float, d2b: float, pq: ConjugatePair) -> float:
    """(b-a)^2 / (8 (2p+1)^(1/p)) times the q-power mean of endpoint |f''|.

    The Hoelder route; valid when |f''|^q is convex, q > 1.
    """
    _check_nonneg(d2a, d2b)
    return _prefactor_holder(iv, pq) * power_mean(d2a, d2b, pq.q)


def bound_convex_powermean(iv: Interval, d2a: float, d2b: float, q: float) -> float:
    """(b-a)^2/24 times the q-power mean of endpoint |f''|, q >= 1.

    Strictly sharper prefactor than the Hoelder route for every q > 1;
    at q = 1 it reduces (bit for bit) to bound_convex_q1.
    """
    if q < 1.0:
        raise DomainError(f"power-mean bound needs q >= 1, got {q}")
    if q == 1.0:
        return bound_convex_q1(iv, d2a, d2b)
    _check_nonneg(d2a, d2b)
    return _prefactor_24(iv) * power_mean(d2a, d2b, q)


def baseline_first_derivative(iv: Interval, d1a: float, d1b: float, q: float = 1.0) -> float:
    """(b-a)/4 times the q-power mean of endpoint |f'| values.

    The first-derivative baseline bound (valid when |f'|^q is convex);
    the second-derivative bounds improve on it as the width shrinks.
    """
    if q < 1.0:
        raise DomainError(f"baseline bound needs q >= 1, got {q}")
    _check_nonneg(d1a, d1b)
    return iv.width / 4.0 * power_mean(d1a, d1b, q)


def constant_comparison(p: float) -> tuple[float, float, bool]:
    """Compare the power-mean prefactor 1/24 with the Hoelder 1/(8(2p+1)^(1/p)).

    Returns (1/24, Hoelder constant, first < second).  The comparison
    holds for every p > 1 since 3^p > 2p + 1 there.
    """
    if not p > 1.0:
        raise DomainError(f"comparison needs p > 1, got {p}")
    lhs = 1.0 / 24.0
    rhs = 1.0 / _holder_denominator(p)
    return lhs, rhs, lhs < rhs
