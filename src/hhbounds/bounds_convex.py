"""Midpoint-gap bounds for functions whose |f''|^q is convex.

Three second-derivative bounds (arithmetic mean, Hoelder, power mean) plus
the older first-derivative baselines they are compared against.  All take
endpoint derivative magnitudes as plain numbers, so the same formulas serve
the bound table in ``suites`` and the special-means inequalities.
"""

from __future__ import annotations

from .core import ConjugatePair, DomainError, Interval, power_exponent


def power_mean(x: float, y: float, q: float) -> float:
    """q-power mean ((x^q + y^q)/2)^(1/q) of two nonnegative numbers.

    Nondecreasing in q; scaled by max(x, y) so large exponents cannot
    overflow, and q = inf gives max(x, y) exactly.  Every bound formula
    aggregates its endpoint values here, so this is where their
    magnitudes and q are checked.
    """
    if not (x >= 0.0 and y >= 0.0):  # a NaN fails too
        raise DomainError(f"power mean needs nonnegative inputs, got ({x}, {y})")
    if power_exponent(q) == 1.0:
        return 0.5 * (x + y)
    m = max(x, y)
    if m == 0.0:
        return 0.0
    r = min(x, y) / m
    return m * (0.5 * (1.0 + r ** q)) ** (1.0 / q)


def _prefactor_24(iv: Interval) -> float:
    """(b-a)^2/24, the prefactor of the mean, power-mean and max bounds."""
    width = iv.width
    return width * width / 24.0


def _prefactor_holder(iv: Interval, pq: ConjugatePair) -> float:
    """(b-a)^2 / (8 (2p+1)^(1/p)), the prefactor of the Hoelder bounds."""
    width, p = iv.width, pq.p
    return width * width / (8.0 * (2.0 * p + 1.0) ** (1.0 / p))


def bound_convex_q1(iv: Interval, d2a: float, d2b: float) -> float:
    """(b-a)^2/24 times the endpoint mean of |f''|.

    Valid when |f''| is convex on the interval; attained exactly by any f
    with linear f'' of constant sign (quadratics, one-signed cubics).
    """
    return _prefactor_24(iv) * power_mean(d2a, d2b, 1.0)


def bound_convex_holder(iv: Interval, d2a: float, d2b: float, pq: ConjugatePair) -> float:
    """(b-a)^2 / (8 (2p+1)^(1/p)) times the q-power mean of endpoint |f''|.

    The Hoelder route; valid when |f''|^q is convex, q > 1.
    """
    return _prefactor_holder(iv, pq) * power_mean(d2a, d2b, pq.q)


def bound_convex_powermean(iv: Interval, d2a: float, d2b: float, q: float) -> float:
    """(b-a)^2/24 times the q-power mean of endpoint |f''|, q >= 1.

    Strictly sharper prefactor than the Hoelder route for every q > 1;
    at q = 1 it reduces (bit for bit) to bound_convex_q1.
    """
    return _prefactor_24(iv) * power_mean(d2a, d2b, q)


def baseline_first_derivative(iv: Interval, d1a: float, d1b: float, q: float = 1.0) -> float:
    """(b-a)/4 times the q-power mean of endpoint |f'| values.

    The first-derivative baseline bound (valid when |f'|^q is convex);
    the second-derivative bounds improve on it as the width shrinks.
    """
    return iv.width / 4.0 * power_mean(d1a, d1b, q)

