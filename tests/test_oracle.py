import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds import core, oracle
from hhbounds.core import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    Interval,
    polynomial,
)
from hhbounds.oracle import (
    CLASS_CHECK_GRID,
    CLASS_CHECK_TOL,
    CONVEX_D1,
    CONVEX_D2,
    CONVEX_OR_CONCAVE_F2,
    CONVEX_OR_CONCAVE_F4,
    MAX_PANELS,
    MONOTONE_D2,
    QUASICONVEX_D2,
    QuadratureResult,
    check_convex_abs_d2,
    check_quasiconvex_abs_d2,
    convexity_sign,
    fine_grid_sample,
    integrate,
    mean_value,
    midpoint_gap,
    midpoint_convexity_holds,
    monotone_holds,
    pairs_hold,
)
from hhbounds.rng import SplitMix64

LN2 = 0.6931471805599453
UNIT = Interval(0.0, 1.0)


def adaptive_simpson(f, iv: Interval, tol: float) -> QuadratureResult:
    """Recursive adaptive Simpson, the oracle before G7K15, kept as an
    independent cross-check.

    A panel is accepted from depth 2 on once |S_halves - S_whole|/15 fits
    its budget, or falls below 8e-16 of |left| + |right|; accepted panels
    get one Richardson correction, and each depth halves the budget.
    """
    count = 0

    def feval(x):
        nonlocal count
        count += 1
        return f(x)

    def recurse(a, b, fa, fm, fb, whole, budget, depth):
        m = 0.5 * (a + b)
        flm = feval(0.5 * (a + m))
        frm = feval(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        if depth >= 2 and (abs(err) <= budget or abs(err) <= 8e-16 * (abs(left) + abs(right))):
            return left + right + err, abs(err)
        if depth >= 60:
            raise ConvergenceError(f"no convergence at depth 60 on [{a}, {b}]")
        lv, le = recurse(a, m, fa, flm, fm, left, 0.5 * budget, depth + 1)
        rv, re = recurse(m, b, fm, frm, fb, right, 0.5 * budget, depth + 1)
        return lv + rv, le + re

    fa, fm, fb = feval(iv.a), feval(iv.midpoint), feval(iv.b)
    value, est = recurse(iv.a, iv.b, fa, fm, fb, iv.width / 6.0 * (fa + 4.0 * fm + fb), tol, 0)
    return QuadratureResult(value=value, est_error=est, evaluations=count)


def per_pair_sampler(g, iv: Interval, quasi: bool = False) -> bool:
    """The pair samplers before the fine-grid read, kept as an independent
    cross-check: g at the 64 grid points a + i*width/63, then at the
    midpoint of each of the 2,016 grid pairs, which must not exceed the
    pair's mean (convex) or larger value (quasi-convex) by more than tol."""
    step = iv.width / (CLASS_CHECK_GRID - 1)
    xs = [iv.a + i * step for i in range(CLASS_CHECK_GRID)]
    xs[-1] = iv.b
    gs = [g(x) for x in xs]
    for i in range(CLASS_CHECK_GRID):
        for j in range(i + 1, CLASS_CHECK_GRID):
            if quasi:
                bound = gs[i] if gs[i] > gs[j] else gs[j]
            else:
                bound = 0.5 * (gs[i] + gs[j])
            if g(0.5 * (xs[i] + xs[j])) > bound + CLASS_CHECK_TOL:
                return False
    return True


def tent(x: float, at: float, height: float = 1.0) -> float:
    """A tent of the given height at `at`, falling to 0 within 1e-3."""
    return height * max(0.0, 1.0 - abs(x - at) / 1e-3)


def bump_d2(x: float) -> float:
    """f'' = 1 with a tent up at 1/126 and one down at 125/126, the
    midpoints of the first and the last pair of the 64-point grid on [0, 1]."""
    return 1.0 + tent(x, 1.0 / 126.0) - tent(x, 125.0 / 126.0)


def kronrod_rules() -> dict[str, list[tuple[Fraction, Fraction]]]:
    """The committed K15 and G7 rules on [-1, 1] as exact (node, weight) pairs."""
    rules = {"K15": [(Fraction(0), Fraction(oracle._WK_CENTRE))],
             "G7": [(Fraction(0), Fraction(oracle._WG_CENTRE))]}
    for x, wk, wg in oracle._NODES:
        for name, w in (("K15", wk), ("G7", wg)):
            if w:
                rules[name] += [(Fraction(x), Fraction(w)), (-Fraction(x), Fraction(w))]
    return rules


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
        # one K15 panel integrates degree <= 23 exactly; only rounding remains
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

    def test_panel_sums_past_the_float_range_raise(self):
        # the integral, e^709.7 - e^705, is a float, but sums of two f values
        # near e^709.7 are not
        with pytest.raises(OverflowError):
            integrate(math.exp, Interval(705.0, 709.7), 1e-6)

    def test_panel_integral_past_the_float_range_raises(self):
        # every x^2 and their sums are floats near 1e300, but times the
        # half-width 2.5e149 the panel's integral is not
        with pytest.raises(OverflowError):
            integrate(lambda x: x * x, Interval(1e150, 1.5e150), 5e139)

    def test_unreachable_budget_raises(self):
        # oscillation that only panels about 2^-57 wide resolve: bisection
        # reaches the panel cap first and must raise
        with pytest.raises(ConvergenceError):
            integrate(lambda x: math.sin(2.0 ** 60 * x), UNIT, 1e-6)
        # and it gives up within the cap's evaluations
        count = 0

        def counted(x):
            nonlocal count
            count += 1
            return math.sin(2.0 ** 60 * x)

        with pytest.raises(ConvergenceError):
            integrate(counted, UNIT, 1e-6)
        assert count <= 15 * MAX_PANELS

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(DomainError):
            integrate(math.exp, UNIT, 0.0)

    def test_tolerance_below_the_rounding_of_the_integral_ends(self):
        # `hh bound exp 0 700` asks for 7e-8 on an integral of 1e304: no
        # halving of the budget reaches it, so panels stop at the rounding
        # floor (4,405 panels, 66,075 evaluations) instead of running for minutes
        res = integrate(math.exp, Interval(0.0, 700.0), 1e-10 * 700.0)
        assert res.evaluations < 200_000
        assert res.value == pytest.approx(math.expm1(700.0), rel=1e-13)


class TestKronrodRule:
    @pytest.mark.parametrize("name, points, degree, missed", [("K15", 15, 22, 24),
                                                              ("G7", 7, 13, 14)])
    def test_committed_nodes_meet_the_exact_moments(self, name, points, degree, missed):
        # K15 is exact to degree 3*7 + 1 = 22 (23 by symmetry), G7 to 13;
        # from the rounded literals, to a few ulp of the integral of |x|^k,
        # and the next even degree misses by far more
        rule = kronrod_rules()[name]
        eps = Fraction(2) ** -52

        def miss(k):
            exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
            return abs(sum(w * x ** k for x, w in rule) - exact) / Fraction(2, k + 1)

        assert len(rule) == points
        assert all(miss(k) <= 4 * eps for k in range(degree + 1))
        assert miss(missed) > 1e6 * eps


class TestSimpsonCrossCheck:
    def test_both_rules_agree_with_mpmath_on_every_window(self, catalog):
        tol = 1e-10
        for fn in catalog:
            iv = fn.window
            with mpmath.workdps(30):
                exact = float(mpmath.quad(lambda t: fn.f(float(t)), [iv.a, iv.b]))
            gk = integrate(fn.f, iv, tol).value
            simpson = adaptive_simpson(fn.f, iv, tol).value
            assert abs(gk - simpson) <= tol, fn.id
            assert abs(gk - exact) <= tol, fn.id
            assert abs(simpson - exact) <= tol, fn.id


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

    def test_signed_fourth_derivative_class_on_every_window(self, catalog, by_id):
        # f'''' is constant, linear, a power of x, exp or sin on [0, pi]:
        # convex or concave on every window; sin bends both ways at pi
        for fn in catalog:
            assert CONVEX_OR_CONCAVE_F4.check(fn, fn.window), fn.id
        for b in (4.5, 6.0):
            assert not CONVEX_OR_CONCAVE_F4.check(by_id["sin"], Interval(2.0, b))


class TestFineGridClassChecks:
    @staticmethod
    def recorded(fn):
        """fn with d1 and d2 replaced by evaluators that record their points."""
        points = []

        def record(ev):
            def wrapped(x):
                points.append(x)
                return ev(x)
            return wrapped

        return dataclasses.replace(fn, d1=record(fn.d1), d2=record(fn.d2)), points

    @pytest.mark.parametrize("hypothesis, fid", [
        (CONVEX_OR_CONCAVE_F2, "x4"),    # f'' convex
        (CONVEX_OR_CONCAVE_F2, "x_5_2"),  # f'' concave: the negated sample
        (QUASICONVEX_D2, "x3"),
        (CONVEX_D1, "x4"),
    ])
    def test_a_passing_check_reads_the_fine_grid_once(self, by_id, hypothesis, fid):
        fn, points = self.recorded(by_id[fid])
        iv = fn.window
        assert hypothesis.check(fn, iv)
        assert points == oracle._grid(iv, 2 * CLASS_CHECK_GRID - 1)

    def test_the_convex_abs_d2_check_evaluates_every_pair_midpoint(self, by_id):
        fn, points = self.recorded(by_id["x4"])
        assert CONVEX_D2.check(fn, fn.window)
        assert len(points) == 64 + 64 * 63 // 2

    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
    def test_even_fine_points_are_the_class_grid(self, a, width):
        iv = Interval(a, a + width)
        fine = oracle._grid(iv, 2 * CLASS_CHECK_GRID - 1)
        assert fine[::2] == oracle._grid(iv, CLASS_CHECK_GRID)

    @pytest.mark.parametrize("fid", sorted(core.catalog_by_id()))
    @settings(max_examples=15)
    @given(st.floats(0.0, 0.9), st.floats(0.05, 1.0))
    def test_grid_verdicts_match_the_per_pair_sampler(self, fid, start, share):
        fn = core.catalog_by_id()[fid]
        w = fn.window
        a = w.a + start * w.width
        iv = Interval(a, min(a + share * w.width, w.b))
        for g in (lambda x: abs(fn.d2(x)), lambda x: abs(fn.d1(x)), fn.d2,
                  lambda x: -fn.d2(x)):
            fine = fine_grid_sample(g, iv)
            for quasi in (False, True):
                assert pairs_hold(fine, quasi) == per_pair_sampler(g, iv, quasi), (fid, iv)

    @pytest.mark.parametrize("g, refuted", [
        (bump_d2, True), (lambda x: -bump_d2(x), True), (lambda x: abs(bump_d2(x)), True),
        # a tent on 0 just above and just below tol, between the first pair
        (lambda x: tent(x, 1.0 / 126.0, 1.5 * CLASS_CHECK_TOL), True),
        (lambda x: tent(x, 1.0 / 126.0, 0.5 * CLASS_CHECK_TOL), False),
    ])
    def test_bumps_between_class_grid_points_refute_as_before(self, g, refuted):
        fine = fine_grid_sample(g, UNIT)
        for quasi in (False, True):
            assert per_pair_sampler(g, UNIT, quasi) is not refuted
            assert pairs_hold(fine, quasi) == per_pair_sampler(g, UNIT, quasi)


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


def test_convexity_sign_from_the_fine_grid():
    assert convexity_sign(fine_grid_sample(lambda x: x * x, UNIT)) == 1
    assert convexity_sign(fine_grid_sample(math.sqrt, UNIT)) == -1
    # both hold; convex first
    assert convexity_sign(fine_grid_sample(lambda x: 2.0 * x, UNIT)) == 1
    assert convexity_sign(fine_grid_sample(math.sin, Interval(0.0, 6.0))) == 0


def test_convexity_sign_of_a_nearly_linear_concave_function():
    # every fine-grid bend of x - 1e-7 x^2 (about 6e-12) is within tol, so
    # both signs stay open; the slope falls across the grid, so concave
    def g(x):
        return x - 1e-7 * x * x

    assert convexity_sign(fine_grid_sample(g, UNIT)) == -1
    assert convexity_sign(fine_grid_sample(lambda x: -g(x), UNIT)) == 1
    fn = polynomial([0.0, 0.0, 0.0, 1.0 / 6.0, -1e-7 / 12.0], id="near_linear",
                    window=UNIT)
    assert CONVEX_OR_CONCAVE_F2.check(fn, UNIT)


def test_generic_monotonicity_sampler_on_plain_callables():
    assert monotone_holds(math.exp, UNIT)
    assert monotone_holds(lambda x: -x, UNIT)
    # a dip in a constant sample: 1e-13 is within the tolerance, 1e-9 is not
    assert monotone_holds(lambda x: 1.0 - (1e-13 if 0.4 < x < 0.6 else 0.0), UNIT)
    assert not monotone_holds(lambda x: 1.0 - (1e-9 if 0.4 < x < 0.6 else 0.0), UNIT)
    assert not monotone_holds(abs, Interval(-1.0, 1.0))
