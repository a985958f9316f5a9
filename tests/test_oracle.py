import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds import core, identity, oracle
from hhbounds.core import (
    GAP_TOL,
    ConvergenceError,
    DomainError,
    EvaluationError,
    HypothesisError,
    Interval,
    polynomial,
)
from hhbounds.oracle import (
    CLASS_CHECK_GRID,
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
from hhbounds.suites import _subinterval

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


#: the class samplers' slack relative to the largest |value| of the class
#: grid, 512 u
SLACK_REL = 2.0 ** -44


def reference_slack(gs: list[float]) -> float:
    """2^-44 times the largest |g| of the class grid's values gs; NaN when
    one is not finite, which fails every comparison, so every pair refutes."""
    if not all(math.isfinite(g) for g in gs):
        return math.nan
    return SLACK_REL * max(abs(g) for g in gs)


def per_pair_sampler(g, iv: Interval, quasi: bool = False) -> bool:
    """The pair samplers before the fine-grid read, kept as an independent
    cross-check: g at the 64 grid points a + i*width/63, then at the
    midpoint of each of the 2,016 grid pairs, which must be at most the
    pair's mean (convex) or larger value (quasi-convex) plus tol, 2^-44
    times the largest |g| at the grid points; a value that is not a finite
    float refutes."""
    step = iv.width / (CLASS_CHECK_GRID - 1)
    xs = [iv.a + i * step for i in range(CLASS_CHECK_GRID)]
    xs[-1] = iv.b
    gs = [g(x) for x in xs]
    tol = reference_slack(gs)
    for i in range(CLASS_CHECK_GRID):
        for j in range(i + 1, CLASS_CHECK_GRID):
            if quasi:
                bound = gs[i] if gs[i] > gs[j] else gs[j]
            else:
                bound = 0.5 * (gs[i] + gs[j])
            if not g(0.5 * (xs[i] + xs[j])) <= bound + tol:
                return False
    return True


def all_pairs(fine: list[float], quasi: bool = False) -> bool:
    """The verdict of ``pairs_hold`` by its loop over all 2,016 pairs, the
    one every sample took before the innermost-pair reduction, kept as the
    reference for it; tol is 2^-44 times the largest |value| of the class
    grid, and a value that is not a finite float refutes."""
    gs = fine[::2]
    tol = reference_slack(gs)
    n = len(gs)
    if quasi:
        tops = [g + tol for g in gs]
        for i, ti in enumerate(tops):
            for mid, tj in zip(fine[2 * i + 1:i + n], tops[i + 1:]):
                if not (mid <= ti or mid <= tj):
                    return False
        return True
    for i, gi in enumerate(gs):
        for mid, gj in zip(fine[2 * i + 1:i + n], gs[i + 1:]):
            if not mid <= 0.5 * (gi + gj) + tol:
                return False
    return True


#: the kinds of fine samples ``built_sample`` makes
SAMPLE_KINDS = ("convex", "negated_concave", "constant", "linear_noise", "bumps",
                "far_pair", "non_finite", "huge")


def built_sample(kind: str, seed: int) -> list[float]:
    """A 127-value fine sample of the given kind, drawn from seed:
      - convex: 2^e (k - c)^2 + 2^e' |k - c'|, integers, so exactly convex;
      - negated_concave: -sqrt or -log1p of a scaled index, as
        ``signed_convexity_holds`` negates a concave sample;
      - constant; linear_noise: a line with each value moved by -1, 0 or 1 ulp;
      - bumps: a convex sample with values moved by up to 2 tol, tol =
        2^-44 times its grid's largest |value|;
      - far_pair: flat at 1 but for both ends dipping (under the convex
        test only pairs with an end can violate), or a concave hill of top
        1 whose pair (i, j) bends by (j - i)^2 tol/10 or tol/5, so that the
        innermost pair of every anti-diagonal holds and pairs far apart
        violate; tol = 2^-44, the slack of a sample whose largest |value|
        is 1;
      - non_finite: a convex sample with NaN, inf or -inf put in;
      - huge: a convex sample near 1e308, whose doubling or sums overflow."""
    rng = random.Random(seed)
    size = 2 * CLASS_CHECK_GRID - 1

    def convex() -> list[float]:
        c, c2 = rng.randrange(-20, 150), rng.randrange(0, 127)
        e, e2 = rng.randrange(-60, 20), rng.randrange(-60, 20)
        return [2.0 ** e * (k - c) ** 2 + 2.0 ** e2 * abs(k - c2) for k in range(size)]

    if kind == "convex":
        return convex()
    if kind == "negated_concave":
        scale = 10.0 ** rng.uniform(-12, 3)
        step = rng.uniform(1e-3, 1.0)
        g = rng.choice((math.sqrt, math.log1p))
        return [-scale * g(1.0 + step * k) for k in range(size)]
    if kind == "constant":
        return [rng.uniform(-1e3, 1e3)] * size
    if kind == "linear_noise":
        a, b = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        line = [a * k + b for k in range(size)]
        return [v + rng.choice((-1, 0, 1)) * math.ulp(v) for v in line]
    if kind == "bumps":
        sample = convex()
        tol = reference_slack(sample[::2])
        for _ in range(rng.randrange(1, 6)):
            k = rng.randrange(size)
            sample[k] += rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)) * tol
        return sample
    if kind == "far_pair":
        tol = SLACK_REL
        if rng.random() < 0.5:
            bend = rng.choice((0.1, 0.2)) * tol
            return [1.0 - bend * (k - size // 2) ** 2 for k in range(size)]
        sample = [1.0] * size
        depth = rng.choice((0.5, 2.0, 10.0)) * tol
        sample[0] = sample[-1] = 1.0 - depth
        return sample
    if kind == "non_finite":
        sample = convex()
        for _ in range(rng.randrange(1, 3)):
            sample[rng.randrange(size)] = rng.choice((math.nan, math.inf, -math.inf))
        return sample
    if kind == "huge":
        c = rng.randrange(0, 127)
        top = rng.choice((0.5, 0.9, 1.7)) * 1e308
        return [top * ((k - c) / 126.0) ** 2 for k in range(size)]
    raise ValueError(kind)


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
    rng = random.Random(seed)
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
        rng = random.Random(314159)
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
        # near e^709.7 are not: no evaluation overflowed, so it is an
        # EvaluationError, as a bound past the float range is
        with pytest.raises(EvaluationError, match="K15 sums of the panel"):
            integrate(math.exp, Interval(705.0, 709.7), 1e-6)

    def test_panel_integral_past_the_float_range_raises(self):
        # every x^2 and their sums are floats near 1e300, but times the
        # half-width 2.5e149 the panel's integral is not
        with pytest.raises(EvaluationError, match="past the float range"):
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

    def test_one_accepted_panel_gives_the_sum_of_the_panels(self):
        # as math.fsum([-0.0]) does, the one panel's -0.0 is summed to +0.0
        res = integrate(lambda x: -0.0, UNIT, 1e-6)
        assert math.copysign(1.0, res.value) == 1.0
        assert res.evaluations == 15

    def test_a_rejected_first_panel_is_not_evaluated_again(self):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return math.exp(x)

        res = integrate(counted, Interval(0.0, 10.0), 1e-12)
        assert res.evaluations > 15  # the first panel was rejected
        assert calls == res.evaluations
        assert res.value == pytest.approx(math.expm1(10.0), rel=1e-14)

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


def two_list_panel(f, a: float, b: float) -> tuple[float, float, float]:
    """The G7K15 panel as it was written before its one-pass form: a list of
    the 15 nodes (the centre, the seven lows, the seven highs), a list of
    their values, then the three sums; kept as the reference of ``_panel``
    on the success path."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    xs = [c] + [c - h * x for x, _, _ in oracle._NODES] + [c + h * x for x, _, _ in oracle._NODES]
    ys = [f(x) for x in xs]
    k15 = oracle._WK_CENTRE * ys[0]
    g7 = oracle._WG_CENTRE * ys[0]
    mass = oracle._WK_CENTRE * abs(ys[0])
    for (_, wk, wg), lo, hi in zip(oracle._NODES, ys[1:8], ys[8:]):
        k15 += wk * (lo + hi)
        g7 += wg * (lo + hi)
        mass += wk * (abs(lo) + abs(hi))
    mass *= h
    return h * k15, h * abs(k15 - g7), mass


def identity_integrands(fn: core.TestFunction, iv: Interval) -> list:
    """The integrands the identity sweep hands the oracle for fn on iv, each
    with its span: its ``left`` kernel integrand on [0, 1/2], and f on iv."""
    seen = []

    def spy(f, span, tol):
        seen.append((f, span))
        return integrate(f, span, tol)

    original, identity.integrate = identity.integrate, spy
    try:
        identity.identity_rhs(fn, iv)
    finally:
        identity.integrate = original
    return seen + [(fn.f, iv)]


class TestOnePassPanel:
    """``_panel`` reads f once per node in one pass and gives the three sums
    of the two-list form bit for bit."""

    @pytest.mark.parametrize("fid", sorted(core.catalog_by_id()))
    def test_it_matches_the_two_list_form_bit_for_bit(self, fid):
        fn = core.catalog_by_id()[fid]
        rng = random.Random(0x9A7E1 + len(fid))
        spans = [fn.window] + [_subinterval(rng, fn.window, 0.05 * fn.window.width)
                               for _ in range(20)]
        for iv in spans:
            for f, span in identity_integrands(fn, iv):
                # the span's panel, and the two of its first bisection
                for a, b in ((span.a, span.b), (span.a, span.midpoint), (span.midpoint, span.b)):
                    counted, points = recording(f)
                    got = oracle._panel(counted, a, b)
                    assert len(points) == 15
                    want = two_list_panel(f, a, b)
                    assert [v.hex() for v in got] == [v.hex() for v in want], (fid, a, b)

    def test_it_reads_the_centre_then_each_pair_of_nodes(self):
        counted, points = recording(math.exp)
        oracle._panel(counted, -1.0, 1.0)
        pairs = [(-x, x) for x, _, _ in oracle._NODES]
        assert points == [0.0] + [t for pair in pairs for t in pair]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("node", [0, 1, 8, 14])
    def test_a_non_finite_value_names_a_node_that_returned_it(self, node, value):
        # node 0 is the centre, 1 the outermost low, 8 the outermost high, 14
        # the innermost high
        x = [0.0] + [-t for t, _, _ in oracle._NODES] + [t for t, _, _ in oracle._NODES]

        def f(t):
            return value if t == x[node] else 1.0

        with pytest.raises(EvaluationError, match="integrand returned") as err:
            oracle._panel(f, -1.0, 1.0)
        named = float(str(err.value).rsplit("x=", 1)[1])
        assert not math.isfinite(f(named))
        assert named == x[node]


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

    def test_the_integral_is_taken_to_gap_tol_times_the_width(self, by_id, monkeypatch):
        tols = []

        def recording_integrate(f, iv, tol):
            tols.append(tol)
            return integrate(f, iv, tol)

        monkeypatch.setattr(oracle, "integrate", recording_integrate)
        ends = ((1.0, 2.0), (0.0, 3e-314), (-1e-3, 5.0))
        for a, b in ends:
            mean_value(by_id["exp"], Interval(a, b))
        # the floor moves no tolerance that was positive: 3e-314 is about
        # the narrowest width whose product is still the least positive float
        assert tols == [GAP_TOL * (b - a) for a, b in ends]
        assert GAP_TOL * 3e-314 == math.ulp(0.0)

    @pytest.mark.parametrize("b", [2e-314, 1e-320, 5e-323])
    def test_an_interval_too_narrow_for_the_product_has_a_gap(self, catalog, b):
        # GAP_TOL * b underflows to 0, which the oracle refuses as a
        # tolerance; the floor gives it the least positive float instead
        iv = Interval(0.0, b)
        assert GAP_TOL * b == 0.0
        for fn in catalog:
            if fn.defined_on(iv):
                assert math.isfinite(mean_value(fn, iv)), fn.id
                assert math.isfinite(midpoint_gap(fn, iv)), fn.id

    def test_affine_gap_vanishes(self):
        # midpoint rule is exact for affine functions
        rng = random.Random(271828)
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
        # a tent on a base of 1 just above and just below the slack, 2^-44
        # of the grid's largest value 1, between the first pair
        (lambda x: 1.0 + tent(x, 1.0 / 126.0, 1.5 * SLACK_REL), True),
        (lambda x: 1.0 + tent(x, 1.0 / 126.0, 0.5 * SLACK_REL), False),
    ])
    def test_bumps_between_class_grid_points_refute_as_before(self, g, refuted):
        fine = fine_grid_sample(g, UNIT)
        for quasi in (False, True):
            assert per_pair_sampler(g, UNIT, quasi) is not refuted
            assert pairs_hold(fine, quasi) == per_pair_sampler(g, UNIT, quasi)

    @settings(max_examples=400)
    @given(st.sampled_from(SAMPLE_KINDS), st.integers(0, 2 ** 32), st.booleans())
    def test_the_verdict_is_the_loop_over_all_pairs(self, kind, seed, quasi):
        fine = built_sample(kind, seed)
        assert pairs_hold(fine, quasi) == all_pairs(fine, quasi)

    @pytest.mark.parametrize("quasi", [False, True])
    def test_built_samples_reach_both_branches_and_both_verdicts(self, quasi):
        seen = set()
        for kind in SAMPLE_KINDS:
            for seed in range(20):
                fine = built_sample(kind, seed)
                gs = fine[::2]
                tops = [g + reference_slack(gs) for g in gs]
                short = oracle._valley(tops) if quasi else oracle._convex(gs)
                verdict = pairs_hold(fine, quasi)
                assert verdict == all_pairs(fine, quasi), (kind, seed)
                seen.add((short, verdict))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("quasi", [False, True])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_non_finite_grid_value_refutes(self, value, quasi):
        # an inf or NaN at the far grid point of a flat 1 refutes the class,
        # with or without the first pair's midpoint 2 slacks above it: the
        # slack is NaN, and a comparison with NaN fails
        fine = [1.0] * (2 * CLASS_CHECK_GRID - 1)
        assert pairs_hold(fine, quasi)
        fine[-1] = value
        assert math.isnan(reference_slack(fine[::2]))
        assert not pairs_hold(fine, quasi)
        fine[1] += 2.0 * SLACK_REL
        assert not pairs_hold(fine, quasi)

    def test_innermost_pairs_are_the_middle_pair_of_each_anti_diagonal(self):
        size = 2 * CLASS_CHECK_GRID - 1
        fine = list(range(size))
        grid = list(range(CLASS_CHECK_GRID))
        expected = {(s, s - (s // 2 + 1), s // 2 + 1) for s in range(1, size - 1)}
        assert set(oracle._innermost_pairs(fine, grid)) == expected
        assert len(expected) == 125

    @staticmethod
    def distinct_sample():
        # distinct values, so each triple names its midpoint and its ends
        rng = random.Random(5)
        fine = rng.sample(range(10 ** 6), 2 * CLASS_CHECK_GRID - 1)
        return [v / 7.0 for v in fine]

    def test_all_pairs_are_every_pair_row_by_row(self):
        fine = self.distinct_sample()
        ends = fine[::2]
        expected = [(fine[i + j], ends[i], ends[j])
                    for i in range(CLASS_CHECK_GRID) for j in range(i + 1, CLASS_CHECK_GRID)]
        assert list(oracle._all_pairs(fine, ends)) == expected
        assert len(expected) == 2016

    def test_innermost_pairs_give_one_pair_per_anti_diagonal(self):
        fine = self.distinct_sample()
        index = {v: k for k, v in enumerate(fine)}
        pairs = [(index[mid], index[gi] // 2, index[gj] // 2)
                 for mid, gi, gj in oracle._innermost_pairs(fine, fine[::2])]
        assert sorted(s for s, _, _ in pairs) == list(range(1, 126))
        assert all((i, j) == (s - (s // 2 + 1), s // 2 + 1) for s, i, j in pairs)

    @pytest.mark.parametrize("values, convex", [
        ([1.0, 0.0, 1.0], True),
        ([0.0, 0.0, 0.0], True),
        # the float second difference (1 - 2^-54) - 2 * 0.5 rounds to 0;
        # the exact one is -2^-54
        ([1.0, 0.5, -2.0 ** -54], False),
        ([0.0, math.nan, 0.0], False),
        ([math.inf, 0.0, 0.0], False),
        # -2 g overflows
        ([1.7e308, 1e308, 1.7e308], False),
        # the exact sum of the grid is finite, fsum's running one is not
        ([1.7e308, 1.7e308, -1.7e308], False),
    ])
    def test_convexity_of_the_grid_is_decided_exactly(self, values, convex):
        assert oracle._convex(values) is convex

    @pytest.mark.parametrize("values, valley", [
        ([3.0, 1.0, 1.0, 2.0], True),
        ([1.0, 1.0], True),
        ([-math.inf, 0.0, math.inf], True),
        ([1.0, 2.0, 1.0], False),
        ([1.0, math.nan, 2.0], False),
        ([math.nan, 1.0], False),
    ])
    def test_valley_by_comparisons(self, values, valley):
        assert oracle._valley(values) is valley


def recording(ev):
    """ev wrapped to record the points it is read at, and that list."""
    points = []

    def recorded(x):
        points.append(x)
        return ev(x)

    return recorded, points


#: f'' = 1 with a tent up between the first pair of the unit grid
BUMP = core.TestFunction("bump", lambda x: 0.0, lambda x: 0.0, bump_d2, UNIT)


class TestConvexAbsD2Reads:
    """``CONVEX_D2`` reads f'' where and as often as the per-pair reference
    reads |f''|: 64 grid points, then each pair's midpoint until the first
    refuted pair, 2,080 reads in all when none is."""

    @staticmethod
    def reads(fn, iv):
        """(verdict, points read) of ``CONVEX_D2`` and of the reference."""
        d2, points = recording(fn.d2)
        verdict = CONVEX_D2.check(dataclasses.replace(fn, d2=d2), iv)
        d2, expected = recording(fn.d2)
        return (verdict, points), (per_pair_sampler(lambda x: abs(d2(x)), iv, False), expected)

    def test_every_catalog_window(self, catalog):
        passed = 0
        for fn in catalog:
            (verdict, points), reference = self.reads(fn, fn.window)
            assert (verdict, points) == reference, fn.id
            assert (len(points) == 64 + 64 * 63 // 2) is verdict, fn.id
            passed += verdict
        assert 0 < passed < len(catalog)

    @pytest.mark.parametrize("fid, iv", [
        ("sin", None), ("x_5_2", None), ("sin", Interval(2.0, 4.5)), ("bump", UNIT)])
    def test_a_refutation_stops_at_the_reference_read(self, by_id, fid, iv):
        fn = BUMP if fid == "bump" else by_id[fid]
        (verdict, points), reference = self.reads(fn, iv or fn.window)
        assert (verdict, points) == reference
        assert not verdict
        assert 64 < len(points) < 64 + 64 * 63 // 2

    @pytest.mark.parametrize("fid", sorted(core.catalog_by_id()))
    @settings(max_examples=15)
    @given(st.floats(0.0, 0.9), st.floats(0.05, 1.0))
    def test_subintervals(self, fid, start, share):
        fn = core.catalog_by_id()[fid]
        w = fn.window
        a = w.a + start * w.width
        iv = Interval(a, min(a + share * w.width, w.b))
        (verdict, points), reference = self.reads(fn, iv)
        assert (verdict, points) == reference, iv
        if verdict:
            assert len(points) == 64 + 64 * 63 // 2

    @pytest.mark.parametrize("hypothesis, key", [(QUASICONVEX_D2, "d2"), (CONVEX_D1, "d1")])
    def test_the_fine_grid_checks_read_127_points(self, catalog, hypothesis, key):
        for fn in catalog + [BUMP]:
            ev, points = recording(getattr(fn, key))
            hypothesis.check(dataclasses.replace(fn, **{key: ev}), fn.window)
            assert len(points) == 2 * CLASS_CHECK_GRID - 1, fn.id


class TestMidpointConvexityOfTheMagnitude:
    """``midpoint_convexity_holds`` tests |d|, whatever the sign of d."""

    def test_a_convex_d_whose_magnitude_is_not(self):
        iv = Interval(-1.0, 1.0)
        assert per_pair_sampler(lambda x: x * x - 0.25, iv)
        assert not midpoint_convexity_holds(lambda x: x * x - 0.25, iv)

    def test_a_concave_d_whose_magnitude_is_convex(self):
        iv = Interval(-1.0, 1.0)
        assert not per_pair_sampler(lambda x: -(x * x), iv)
        assert midpoint_convexity_holds(lambda x: -(x * x), iv)

    def test_a_nan_midpoint_refutes_its_pair(self):
        xs = oracle._grid(UNIT, CLASS_CHECK_GRID)
        mid = 0.5 * (xs[0] + xs[1])  # on no other pair and no grid point

        def spike(value):
            return lambda x: value if x == mid else x * x

        assert not midpoint_convexity_holds(spike(1e6), UNIT)
        # the first pair read is the one whose midpoint is NaN: the check
        # stops there, after the 64 grid reads and that one
        d, points = recording(spike(math.nan))
        assert not midpoint_convexity_holds(d, UNIT)
        assert points == xs + [mid]

#: every class hypothesis, by name
HYPOTHESES = {"CONVEX_D2": CONVEX_D2, "QUASICONVEX_D2": QUASICONVEX_D2,
              "MONOTONE_D2": MONOTONE_D2, "CONVEX_D1": CONVEX_D1,
              "CONVEX_OR_CONCAVE_F2": CONVEX_OR_CONCAVE_F2,
              "CONVEX_OR_CONCAVE_F4": CONVEX_OR_CONCAVE_F4}

#: where a value goes on [0, 1]: an interior point of the class grid, the
#: midpoint of the grid's first pair (no grid point, and on no other pair),
#: and either end
UNIT_GRID = oracle._grid(UNIT, CLASS_CHECK_GRID)
PLACES = {"grid": UNIT_GRID[21], "midpoint": 0.5 * (UNIT_GRID[0] + UNIT_GRID[1]),
          "a": 0.0, "b": 1.0}


class TestNonFiniteValues:
    """A sample value that is not a finite float refutes the class, in every
    hypothesis and wherever the hypothesis reads it."""

    @staticmethod
    def spiked(at: float, value: float) -> core.TestFunction:
        """f', f'' and f'''' all 1 but for value at x = at."""
        def d(x):
            return value if x == at else 1.0

        return core.TestFunction("spiked", lambda x: 0.5 * x * x, d, d, UNIT, d4=d)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("name", HYPOTHESES)
    def test_a_value_that_is_not_a_finite_float_refutes(self, name, place, value):
        hypothesis, at = HYPOTHESES[name], PLACES[place]
        hypothesis.require(self.spiked(at, 1.0), UNIT)  # flat: every class holds
        if name == "MONOTONE_D2" and place == "midpoint":
            hypothesis.require(self.spiked(at, value), UNIT)  # it reads no pair midpoint
            return
        with pytest.raises(HypothesisError, match="class check failed"):
            hypothesis.require(self.spiked(at, value), UNIT)


class TestDerivativeConsistency:
    def test_catalog_derivatives_match_finite_differences(self, catalog):
        for fn in catalog:
            assert derivative_consistency(fn, points=100) < 1.0, fn.id


class TestHermiteHadamardProperty:
    def test_double_inequality_for_convex_functions(self, catalog, mean_at):
        # convexity of f itself: d2 >= 0 across the window
        rng = random.Random(99991)
        for fn in catalog:
            grid = [fn.window.a + fn.window.width * i / 64 for i in range(65)]
            if min(fn.d2(x) for x in grid) < 0.0:
                continue
            for _ in range(20):
                iv = _subinterval(rng, fn.window, 0.05 * fn.window.width)
                mid = fn.f(iv.midpoint)
                mv = mean_at(fn, iv, 1e-11)
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
    # every fine-grid bend of x - 1e-10 x^2 (about 6e-15) is within the
    # slack, 2^-44 of the largest value (about 1), so both signs stay open;
    # the slope falls across the grid, so concave
    def g(x):
        return x - 1e-10 * x * x

    fine = fine_grid_sample(g, UNIT)
    assert max(abs(mid - 0.5 * (lo + hi))
               for lo, mid, hi in zip(fine, fine[1:], fine[2:])) <= SLACK_REL * max(fine)
    assert convexity_sign(fine) == -1
    assert convexity_sign(fine_grid_sample(lambda x: -g(x), UNIT)) == 1
    fn = polynomial([0.0, 0.0, 0.0, 1.0 / 6.0, -1e-10 / 12.0], id="near_linear",
                    window=UNIT)
    assert CONVEX_OR_CONCAVE_F2.check(fn, UNIT)


@pytest.mark.parametrize("kind", SAMPLE_KINDS)
def test_a_negated_sample_takes_the_slack_of_the_sample(kind):
    # -g has g's slack bit for bit, max(max g, -min g) being symmetric, so
    # the signed check may negate a concave sample and keep its verdicts
    for seed in range(20):
        fine = built_sample(kind, seed)
        negated = [-v for v in fine]
        assert oracle._slack(negated[::2]).hex() == oracle._slack(fine[::2]).hex()


@pytest.mark.parametrize("g, holds, slacks", [(math.exp, True, 2), (math.sqrt, True, 2),
                                              (lambda x: math.sin(6.0 * x), False, 1)])
def test_every_slack_the_signed_check_takes_is_of_the_class_grid(monkeypatch, g, holds,
                                                                 slacks):
    # the sign takes one slack and the pair test another; when the bends
    # refute both signs (sin 6x), no pair test runs
    sizes = []
    slack = oracle._slack
    monkeypatch.setattr(oracle, "_slack", lambda gs: sizes.append(len(gs)) or slack(gs))
    assert oracle.signed_convexity_holds(g, UNIT) is holds
    assert sizes == [CLASS_CHECK_GRID] * slacks


def test_generic_monotonicity_sampler_on_plain_callables():
    assert monotone_holds(math.exp, UNIT)
    assert monotone_holds(lambda x: -x, UNIT)
    # a dip in a sample of size 1: half the slack, 2^-44, is within it,
    # twice the slack is not
    assert monotone_holds(lambda x: 1.0 - (0.5 * SLACK_REL if 0.4 < x < 0.6 else 0.0), UNIT)
    assert not monotone_holds(lambda x: 1.0 - (2.0 * SLACK_REL if 0.4 < x < 0.6 else 0.0), UNIT)
    assert not monotone_holds(abs, Interval(-1.0, 1.0))
