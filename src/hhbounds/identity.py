"""The integral identity behind every bound, verified numerically.

For twice-differentiable f on [a, b]:

    (1/(b-a)) * int_a^b f - f((a+b)/2)
        = ((b-a)^2 / 4) * int_0^1 k(t) [f''(ta+(1-t)b) + f''(tb+(1-t)a)] dt

with k the peak kernel.  The kernel integrand is symmetric about the knot
t = 1/2: t -> 1 - t keeps k and swaps the two f'' terms, so the right side
is computed from one integral over [0, 1/2], doubled.

The leading coefficient is (b-a)^2/4, not /2: for f = x^2 on [0, 1] the
left side is 1/12 and the kernel integral is 1/3, so a /2 coefficient
would produce 1/6 and break the identity.  The /2 variant is kept around
in tests as a documented regression.
"""

from __future__ import annotations

from .core import GAP_TOL, Interval, TestFunction
from .oracle import integrate, mean_value

_LEFT = Interval(0.0, 0.5)


def kernel_weighted_d2_integral(fn: TestFunction, iv: Interval, tol: float) -> float:
    """int_0^1 k(t)*[f''(ta+(1-t)b) + f''(tb+(1-t)a)] dt to tolerance tol.

    The integrand is symmetric about the kernel knot at t = 1/2: on
    [1/2, 1] it is (1-t)^2 [f''(ta+(1-t)b) + f''(tb+(1-t)a)], and
    substituting t = 1 - s gives s^2 [f''(sb+(1-s)a) + f''(sa+(1-s)b)],
    which is left(s).  So the result is twice the [0, 1/2] integral taken
    to tol/2, an error budget of 2 * tol/2 = tol, and the adaptive rule
    never sees the kink at the knot.
    """
    a, b = iv.a, iv.b
    d2 = fn.d2

    def left(t: float) -> float:
        return t * t * (d2(t * a + (1.0 - t) * b) + d2(t * b + (1.0 - t) * a))

    return 2.0 * integrate(left, _LEFT, 0.5 * tol).value


def identity_rhs(fn: TestFunction, iv: Interval) -> float:
    """Right side of the identity: ((b-a)^2/4) * kernel-weighted f'' integral,
    accurate to ``GAP_TOL``."""
    coeff = iv.width * iv.width / 4.0
    inner_tol = GAP_TOL / coeff if coeff > 0.0 else GAP_TOL
    return coeff * kernel_weighted_d2_integral(fn, iv, inner_tol)


def identity_lhs(fn: TestFunction, iv: Interval) -> float:
    """Left side: signed mean value of f minus f at the midpoint, accurate
    to ``GAP_TOL``."""
    return mean_value(fn, iv) - fn.f(iv.midpoint)

