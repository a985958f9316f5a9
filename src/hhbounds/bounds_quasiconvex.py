"""Midpoint-gap bounds for functions whose |f''|^q is only quasi-convex.

The quasi-convex hypothesis replaces the endpoint mean with the endpoint
supremum.  sup{x^q, y^q}^(1/q) is max(x, y) by monotonicity of t^q, for
every q: the power mean at q = inf, which is exact and cannot overflow.
That also makes the power-mean variant independent of q.
"""

from __future__ import annotations

import math

from .bounds_convex import _prefactor_24, _prefactor_holder, power_mean
from .core import ConjugatePair, Interval, power_exponent


def bound_quasi_q1(iv: Interval, d2a: float, d2b: float) -> float:
    """(b-a)^2/24 times the larger endpoint |f''|; needs quasi-convex |f''|."""
    return _prefactor_24(iv) * power_mean(d2a, d2b, math.inf)


def bound_quasi_monotone(iv: Interval, d2a: float, d2b: float) -> float:
    """(b-a)^2/24 times |f''| at the endpoint it grows toward, the larger
    one; the corollary for monotone |f''| (``oracle.MONOTONE_D2``)."""
    return bound_quasi_q1(iv, d2a, d2b)


def bound_quasi_holder(iv: Interval, d2a: float, d2b: float, pq: ConjugatePair) -> float:
    """(b-a)^2 / (8 (2p+1)^(1/p)) times the larger endpoint |f''|."""
    return _prefactor_holder(iv, pq) * power_mean(d2a, d2b, math.inf)


def bound_quasi_powermean(iv: Interval, d2a: float, d2b: float, q: float) -> float:
    """(b-a)^2/24 times the larger endpoint |f''|, for any q >= 1.

    Numerically independent of q: the endpoint sup commutes with the
    q-th power.  At q = 1 this is exactly bound_quasi_q1.
    """
    power_exponent(q)
    return bound_quasi_q1(iv, d2a, d2b)
