"""Closed-form moments of the piecewise-quadratic peak kernel.

The kernel rises as t^2 from 0, peaks at 1/4 at t = 1/2, and falls as
(1-t)^2.  It is the weight that converts a kernel-averaged second
derivative into the midpoint-rule error, and its moments supply every
constant in the bound formulas: the L1 mass 1/12, the Lp mass
1/(4^p (2p+1)), and the t-weighted mass 1/24.
"""

from __future__ import annotations

from .core import DomainError


def peak_kernel(t: float) -> float:
    """Kernel value at t in [0, 1]: t^2 left of the knot, (1-t)^2 from it on.

    Continuous at t = 1/2 and symmetric: peak_kernel(t) == peak_kernel(1-t).
    The branch at exactly 1/2 takes (1-t)^2; both branches agree there.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"kernel argument must be in [0, 1], got {t}")
    if t < 0.5:
        return t * t
    u = 1.0 - t
    return u * u


def lp_norm_integral(p: float) -> float:
    """Integral of peak_kernel^p over [0, 1]: 1 / (4^p (2p+1)), p >= 1."""
    if p < 1.0:
        raise DomainError(f"Lp moment needs p >= 1, got {p}")
    return 1.0 / (4.0 ** p * (2.0 * p + 1.0))


def weighted_moment() -> float:
    """Integral of peak_kernel(t)*t over [0, 1]; equals 1/24.

    By the kernel's symmetry the (1-t)-weighted moment is also 1/24, and
    the two sum to the L1 mass 1/12.
    """
    return 1.0 / 24.0
