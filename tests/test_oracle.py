import math

import pytest

from hhbounds import core
from hhbounds.core import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    Interval,
    polynomial,
)
from hhbounds.oracle import (
    MONOTONE_D2,
    check_convex_abs_d2,
    check_quasiconvex_abs_d2,
    integrate,
    mean_value,
    midpoint_gap,
    midpoint_convexity_holds,
    monotone_holds,
)
from hhbounds.rng import SplitMix64

LN2 = 0.6931471805599453
UNIT = Interval(0.0, 1.0)


def derivative_consistency(fn: core.TestFunction, points: int = 100,
                           seed: int = 20260810) -> float:
    """Worst central-difference discrepancy of (d1, d2) against f.

    Samples interior points of the window (keeping the stencil inside the
    declared domain) and compares derivatives against central differences
    at tolerance max(1e-6, 1e-6*|value|).  Returns the largest
    discrepancy/tolerance ratio; values below 1 mean consistent.
    """
    rng = SplitMix64(seed)
    iv = fn.window
    worst = 0.0
    for _ in range(points):
        x = iv.a + (0.02 + 0.96 * rng.random()) * iv.width
        scale = max(1.0, abs(x))
        h1 = 1e-6 * scale
        h2 = 1e-4 * scale
        fd1 = (fn.f(x + h1) - fn.f(x - h1)) / (2.0 * h1)
        fd2 = (fn.f(x + h2) - 2.0 * fn.f(x) + fn.f(x - h2)) / (h2 * h2)
        for got, ref in ((fn.d1(x), fd1), (fn.d2(x), fd2)):
            tol = max(1e-6, 1e-6 * abs(got))
            worst = max(worst, abs(got - ref) / tol)
    return worst


class TestIntegrate:
    def test_exact_on_square(self):
        res = integrate(lambda x: x * x, UNIT, 1e-12)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert res.est_error <= 1e-12
        assert res.evaluations > 0

    def test_reciprocal_matches_log(self):
        res = integrate(lambda x: 1.0 / x, Interval(1.0, 2.0), 1e-12)
        assert res.value == pytest.approx(LN2, abs=1e-12)
        assert res.est_error <= 1e-12

    def test_exact_on_affine(self):
        res = integrate(lambda x: 3.0 * x + 1.0, Interval(0.0, 2.0), 1e-12)
        assert res.value == pytest.approx(8.0, abs=1e-13)

    def test_exact_on_random_cubics(self):
        # Simpson's rule integrates degree <= 3 exactly; only rounding remains
        rng = SplitMix64(314159)
        for _ in range(100):
            cs = [rng.uniform(-3.0, 3.0) for _ in range(4)]
            a = rng.uniform(-2.0, 1.0)
            b = a + rng.uniform(0.2, 2.0)
            fn = polynomial(cs)
            res = integrate(fn.f, Interval(a, b), 1e-9)
            exact = sum(c / (k + 1) * (b ** (k + 1) - a ** (k + 1))
                        for k, c in enumerate(cs))
            assert res.value == pytest.approx(exact, abs=1e-12)

    def test_estimated_error_respects_budget(self):
        res = integrate(math.exp, Interval(-1.0, 1.0), 1e-9)
        assert res.est_error <= 1e-9
        assert res.value == pytest.approx(math.e - 1.0 / math.e, abs=1e-9)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(EvaluationError):
            integrate(lambda x: math.nan, UNIT, 1e-6)
        with pytest.raises(EvaluationError):
            integrate(lambda x: math.inf if abs(x - 0.5) < 0.3 else 1.0, UNIT, 1e-6)

    def test_unreachable_budget_raises(self):
        # oscillation no bisection depth can resolve: the first panel to
        # reach the depth cap still misses its budget and must raise
        with pytest.raises(ConvergenceError):
            integrate(lambda x: math.sin(2.0 ** 60 * x), UNIT, 1e-6)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(DomainError):
            integrate(math.exp, UNIT, 0.0)


class TestMidpointGap:
    def test_square_on_unit_interval(self, by_id):
        assert midpoint_gap(by_id["x2"], UNIT) == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_reciprocal_on_one_two(self, by_id):
        expected = LN2 - 2.0 / 3.0  # 0.026480513893278643
        assert midpoint_gap(by_id["inv_x"], Interval(1.0, 2.0)) == pytest.approx(
            expected, abs=1e-10)

    def test_affine_gap_vanishes(self):
        # midpoint rule is exact for affine functions
        rng = SplitMix64(271828)
        for _ in range(100):
            fn = polynomial([rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)])
            a = rng.uniform(-3.0, 2.0)
            iv = Interval(a, a + rng.uniform(0.1, 3.0))
            assert midpoint_gap(fn, iv) <= 1e-12


class TestClassChecks:
    def test_convex_verdicts(self, by_id):
        assert check_convex_abs_d2(by_id["x4"], UNIT)
        assert check_convex_abs_d2(by_id["x2"], Interval(-1.0, 1.0))
        assert not check_convex_abs_d2(by_id["sin"], Interval(0.0, math.pi))

    def test_quasiconvex_verdicts(self, by_id):
        assert check_quasiconvex_abs_d2(by_id["x3"], Interval(1.0, 2.0))
        assert check_quasiconvex_abs_d2(by_id["inv_x"], Interval(1.0, 2.0))
        assert not check_quasiconvex_abs_d2(by_id["sin"], Interval(0.0, math.pi))

    def test_declared_classes_reverified(self, catalog):
        # (convex, quasi-convex, monotone) verdicts of |f''| on each window:
        # |f''| of x^(5/2) is increasing but concave, sin's has an interior
        # peak, and those of x^4 and x^5 turn at 0
        expected = {"x_5_2": (False, True, True), "sin": (False, False, False),
                    "x4": (True, True, False), "x5": (True, True, False)}
        for fn in catalog:
            verdicts = (check_convex_abs_d2(fn, fn.window),
                        check_quasiconvex_abs_d2(fn, fn.window),
                        MONOTONE_D2.check(fn, fn.window))
            assert verdicts == expected.get(fn.id, (True, True, True)), fn.id


class TestDerivativeConsistency:
    def test_catalog_derivatives_match_finite_differences(self, catalog):
        for fn in catalog:
            assert derivative_consistency(fn, points=100) < 1.0, fn.id


class TestHermiteHadamardProperty:
    def test_double_inequality_for_convex_functions(self, catalog):
        # convexity of f itself: d2 >= 0 across the window
        rng = SplitMix64(99991)
        for fn in catalog:
            grid = [fn.window.a + fn.window.width * i / 64 for i in range(65)]
            if min(fn.d2(x) for x in grid) < 0.0:
                continue
            for _ in range(20):
                iv = rng.subinterval(fn.window)
                mid = fn.f(iv.midpoint)
                mv = mean_value(fn, iv, tol=1e-11)
                ends = 0.5 * (fn.f(iv.a) + fn.f(iv.b))
                assert mid <= mv + 1e-10, fn.id
                assert mv <= ends + 1e-10, fn.id


def test_generic_convexity_sampler_on_plain_callables():
    assert midpoint_convexity_holds(abs, Interval(-1.0, 1.0))
    assert not midpoint_convexity_holds(lambda x: math.sqrt(abs(x)), Interval(0.0, 1.0))


def test_generic_monotonicity_sampler_on_plain_callables():
    assert monotone_holds(math.exp, UNIT)
    assert monotone_holds(lambda x: -x, UNIT)
    # a dip in a constant sample: 1e-13 is within the tolerance, 1e-9 is not
    assert monotone_holds(lambda x: 1.0 - (1e-13 if 0.4 < x < 0.6 else 0.0), UNIT)
    assert not monotone_holds(lambda x: 1.0 - (1e-9 if 0.4 < x < 0.6 else 0.0), UNIT)
    assert not monotone_holds(abs, Interval(-1.0, 1.0))
