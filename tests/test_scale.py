"""The class checks and the certifier do not depend on f's units.

Scaling f, f', f'' and f'''' by 2^j scales every value they return
exactly (no catalog value here leaves the normal range for |j| <= 60), so
every class verdict must stay, and every certificate must scale bit for
bit or give the same refusal.  An absolute slack breaks this: above scale
1 rounding noise refutes true classes, below it false classes pass and the
certificates built on them miss.
"""

import dataclasses
import math
import re

import pytest

from hhbounds import core
from hhbounds.certifier import CertTheorem, integrate_certified, refine_to_tolerance
from hhbounds.core import ConvergenceError, EvaluationError, HypothesisError, Interval
from hhbounds.oracle import (
    CONVEX_D1,
    CONVEX_D2,
    CONVEX_OR_CONCAVE_F2,
    CONVEX_OR_CONCAVE_F4,
    MONOTONE_D2,
    QUASICONVEX_D2,
)

HYPOTHESES = (CONVEX_D2, QUASICONVEX_D2, MONOTONE_D2, CONVEX_D1,
              CONVEX_OR_CONCAVE_F2, CONVEX_OR_CONCAVE_F4)

EXPONENTS = range(-60, 61)


def scaled(fn: core.TestFunction, j: int) -> core.TestFunction:
    """fn with f, f', f'' and f'''' times 2^j."""
    scale = 2.0 ** j

    def times(ev):
        return None if ev is None else lambda x: scale * ev(x)

    return dataclasses.replace(fn, f=times(fn.f), d1=times(fn.d1), d2=times(fn.d2),
                               d4=times(fn.d4))


def windows(fn: core.TestFunction) -> list[Interval]:
    """fn's window and its first third."""
    w = fn.window
    return [w, Interval(w.a, w.a + w.width / 3.0)]


def outcome(fn, iv, tol, theorem):
    """refine_to_tolerance's certificate as (n, estimate, truncation,
    rounding, error radius), or its refusal as (type, the levels it names)."""
    try:
        res = refine_to_tolerance(fn, iv, tol, theorem)
    except (ConvergenceError, EvaluationError, HypothesisError) as exc:
        return type(exc).__name__, re.findall(r"n=\d+", str(exc))
    return (res.subintervals, res.estimate, res.truncation_radius, res.rounding_radius,
            res.error_radius)


@pytest.mark.parametrize("fid", sorted(core.catalog_by_id()))
def test_no_class_verdict_moves_with_scale(fid):
    fn = core.catalog_by_id()[fid]
    for iv in windows(fn):
        expected = [h.check(fn, iv) for h in HYPOTHESES]
        for j in EXPONENTS:
            assert [h.check(scaled(fn, j), iv) for h in HYPOTHESES] == expected, (iv, j)


#: j for each tolerance: every fourth exponent at 1e-4, and four at 1e-8,
#: where the Q1 rules walk to n = 2^13 and more
CERTIFY_EXPONENTS = {1e-4: EXPONENTS[::4], 1e-8: (-60, -7, 13, 60)}


@pytest.mark.parametrize("theorem", list(CertTheorem))
def test_certificates_scale_bit_for_bit(catalog, theorem):
    for fn in catalog:
        for iv in windows(fn):
            for tol, exponents in CERTIFY_EXPONENTS.items():
                n, *parts = expected = outcome(fn, iv, tol, theorem)
                for j in exponents:
                    got = outcome(scaled(fn, j), iv, tol * 2.0 ** j, theorem)
                    if isinstance(n, str):
                        assert got == expected, (fn.id, iv, tol, j)
                    else:
                        assert got == (n, *(p * 2.0 ** j for p in parts)), (fn.id, iv, tol, j)


def scaled_sine(k: int, s: float) -> core.TestFunction:
    """s sin(kx) and its derivatives."""
    return core.TestFunction(f"{s:g} sin {k}x",
                             lambda x: s * math.sin(k * x),
                             lambda x: s * k * math.cos(k * x),
                             lambda x: -s * k * k * math.sin(k * x),
                             Interval(0.0, 6.0),
                             d4=lambda x: s * k ** 4 * math.sin(k * x))


def test_scaled_sines_certify_only_what_encloses():
    # f'' and f'''' of s sin(kx) change convexity on every interval here but
    # the shortest few; with s = 1e-10/k^4 or 1e-14/k^4 every bend is far
    # below an absolute slack of 1e-9, which passed them all
    mpmath = pytest.importorskip("mpmath")
    certified = 0
    for k in range(1, 32):
        for s in (1e-10 / k ** 4, 1e-14 / k ** 4):
            fn = scaled_sine(k, s)
            for a, b in ((0.0, 6.0), (0.5, 2.0), (1.0, 4.0)):
                with mpmath.workdps(50):
                    exact = (mpmath.mpf(s) * (mpmath.cos(k * mpmath.mpf(a))
                                              - mpmath.cos(k * mpmath.mpf(b))) / k)
                for n in (1, 2, 4, 8):
                    for theorem in CertTheorem:
                        try:
                            res = integrate_certified(fn, Interval(a, b), n, theorem)
                        except HypothesisError:
                            continue
                        certified += 1
                        assert abs(res.estimate - exact) <= res.error_radius, (k, s, a, b, n)
    assert certified > 0
