import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhbounds.bounds_convex import (
    bound_convex_holder,
    bound_convex_powermean,
    bound_convex_q1,
)
from hhbounds.bounds_quasiconvex import bound_quasi_holder, bound_quasi_powermean
from hhbounds import core
from hhbounds.core import ConjugatePair, DomainError, HypothesisError, Interval
from hhbounds.means import (
    LP_MONOTONE_GRID,
    all_means,
    arithmetic_mean,
    chain_check,
    check_prop_identric,
    check_prop_monomial_pm,
    check_prop_monomial_q1,
    check_prop_monomial_quasi,
    check_prop_reciprocal_pm,
    check_prop_reciprocal_quasi,
    geometric_mean,
    harmonic_mean,
    identric_mean,
    logarithmic_mean,
    lp_monotone_nondecreasing,
    p_logarithmic_mean,
)
from hhbounds.rng import SplitMix64

PQ2 = ConjugatePair(2.0, 2.0)

pair_strategy = st.tuples(
    st.floats(min_value=0.05, max_value=50.0),
    st.floats(min_value=0.05, max_value=50.0),
).filter(lambda ab: ab[0] != ab[1])

KINDS = ("A", "G", "H", "L", "I")


class TestMeanValues:
    def test_plugin_values(self):
        assert arithmetic_mean(1.0, 2.0) == 1.5
        assert geometric_mean(4.0, 9.0) == pytest.approx(6.0, rel=1e-15)
        assert harmonic_mean(1.0, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_logarithmic_and_identric(self):
        assert logarithmic_mean(1.0, 2.0) == pytest.approx(1.4426950408889634, rel=1e-14)
        assert identric_mean(1.0, 2.0) == pytest.approx(1.4715177646857693, rel=1e-14)
        assert identric_mean(2.0, 3.0) == pytest.approx(2.4831862279072357, rel=1e-14)

    def test_p_logarithmic_values(self):
        assert p_logarithmic_mean(1.0, 2.0, 2.0) == pytest.approx(
            1.5275252316519467, rel=1e-14)  # sqrt(7/3)
        assert p_logarithmic_mean(1.0, 2.0, 3.0) == pytest.approx(
            1.5536162529769294, rel=1e-14)  # (15/4)^(1/3)
        assert p_logarithmic_mean(1.0, 2.0, -2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-14)

    def test_p_one_is_arithmetic(self):
        assert p_logarithmic_mean(3.0, 7.0, 1.0) == pytest.approx(5.0, rel=1e-14)

    def test_limit_exponents_dispatch(self):
        assert p_logarithmic_mean(1.0, 2.0, -1.0) == logarithmic_mean(1.0, 2.0)
        assert p_logarithmic_mean(1.0, 2.0, 0.0) == identric_mean(1.0, 2.0)

    def test_equal_arguments_collapse(self):
        for kind in KINDS:
            assert all_means(5.0, 5.0)[kind] == 5.0
        assert p_logarithmic_mean(5.0, 5.0, 3.0) == 5.0

    @pytest.mark.parametrize("a,b", [(-1.0, 2.0), (0.0, 1.0), (1.0, math.inf)])
    def test_rejects_nonpositive_or_nonfinite(self, a, b):
        with pytest.raises(DomainError):
            arithmetic_mean(a, b)
        with pytest.raises(DomainError):
            logarithmic_mean(a, b)

    @given(pair_strategy)
    def test_symmetry(self, ab):
        a, b = ab
        for kind in KINDS:
            assert all_means(a, b)[kind] == pytest.approx(
                all_means(b, a)[kind], rel=1e-12)

    @given(pair_strategy, st.floats(min_value=0.1, max_value=10.0))
    def test_homogeneous_degree_one(self, ab, lam):
        a, b = ab
        for kind in KINDS:
            assert all_means(lam * a, lam * b)[kind] == pytest.approx(
                lam * all_means(a, b)[kind], rel=1e-12)

    @given(pair_strategy)
    def test_every_mean_lies_between_arguments(self, ab):
        lo, hi = sorted(ab)
        for kind in KINDS:
            value = all_means(lo, hi)[kind]
            assert lo - 1e-12 * hi <= value <= hi + 1e-12 * hi


def _close_pairs(seed: int, count: int):
    """Seeded pairs in [0.1, 10] whose relative separation is 1e-12 to 1e-4."""
    rng = SplitMix64(seed)
    for _ in range(count):
        a = rng.uniform(0.1, 10.0)
        yield a, a * (1.0 + 10.0 ** rng.uniform(-12.0, -4.0))


def _mp_p_logarithmic(a, b, p):
    """L_p(a, b) from its definition in 60-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    a, b, p = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(p)
    with mpmath.mp.workdps(60):
        if p == -1:
            return (b - a) / (mpmath.log(b) - mpmath.log(a))
        if p == 0:
            return mpmath.exp((b * mpmath.log(b) - a * mpmath.log(a)) / (b - a) - 1)
        return ((b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))) ** (1 / p)


#: log-spaced scales and relative separations: each scale paired with itself
#: times 1 + each separation, and every two scales paired with each other
_SCALES = [10.0 ** k for k in range(-300, 301, 20)]
_GRID_PAIRS = ([(a, a * (1.0 + 10.0 ** k)) for a in _SCALES for k in range(-15, 4)]
               + list(itertools.combinations(_SCALES, 2)))


class TestAccuracy:
    """L, I and L_p against mpmath, from nearly equal arguments to arguments
    at opposite ends of the float range."""

    @pytest.mark.parametrize("p", sorted(set(LP_MONOTONE_GRID) | {-4.0, -3.0, -2.0, 3.0,
                                                                    4.0, 5.0, 6.0}))
    def test_p_logarithmic_on_a_log_spaced_grid(self, p):
        for a, b in _GRID_PAIRS:
            got = p_logarithmic_mean(a, b, p)
            exact = _mp_p_logarithmic(a, b, p)
            assert abs(got - exact) <= 1e-13 * exact, (a, b, p, got, exact)

    def test_equal_arguments_return_the_argument(self):
        rng = SplitMix64(1729)
        for a in _SCALES + [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2000)]:
            assert all(value == a for value in all_means(a, a).values()), a
            assert all(p_logarithmic_mean(a, a, p) == a for p in LP_MONOTONE_GRID), a


class TestChain:
    def test_one_two(self):
        ms = all_means(1.0, 2.0)
        assert ms["H"] <= ms["G"] <= ms["L"] <= ms["I"] <= ms["A"]
        assert chain_check(1.0, 2.0)

    def test_degenerate_pair(self):
        assert chain_check(5.0, 5.0)
        assert all(v == 5.0 for v in all_means(5.0, 5.0).values())

    def test_wide_pair(self):
        assert chain_check(0.1, 10.0)

    @given(pair_strategy)
    def test_holds_generally(self, ab):
        assert chain_check(*ab)

    def test_close_pairs(self):
        for a, b in _close_pairs(4242, 2000):
            assert chain_check(a, b), (a, b)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="G and H are not correctly rounded, and on this close pair "
                              "both read above A (ROADMAP item 17)")
    def test_a_close_pair_keeps_g_and_h_at_most_a(self):
        # G and H read 7.30000005, A reads 7.3000000499999995
        a, b = 7.3, 7.3000001
        assert geometric_mean(a, b) <= arithmetic_mean(a, b)
        assert harmonic_mean(a, b) <= arithmetic_mean(a, b)


class TestFallbacks:
    """A, G and H where the plain formula's sum or product leaves the float
    range: the fallback is taken, and its result is checked against the
    exact value."""

    def test_a_sum_that_overflows_is_correctly_rounded(self):
        a, b = 1e308, 1.5e308
        assert arithmetic_mean(a, b) == float((Fraction(a) + Fraction(b)) / 2) == 1.25e308

    @pytest.mark.parametrize("a, b", [(1e200, 4e200), (1e-200, 4e-200)],
                             ids=["overflowing-product", "underflowing-product"])
    def test_g_and_h_are_within_two_ulps_and_keep_the_chain(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.mp.workdps(60):
            exact_g = mpmath.sqrt(mpmath.mpf(a) * mpmath.mpf(b))
        exact_h = 2 * Fraction(a) * Fraction(b) / (Fraction(a) + Fraction(b))
        g, h = geometric_mean(a, b), harmonic_mean(a, b)
        assert abs(mpmath.mpf(g) - exact_g) <= 2 * math.ulp(float(exact_g))
        assert abs(Fraction(h) - exact_h) <= 2 * Fraction(math.ulp(float(exact_h)))
        assert h <= g <= arithmetic_mean(a, b)


class TestPLogarithmicMonotonicity:
    def test_grid_contains_limit_points(self):
        assert -1.0 in LP_MONOTONE_GRID and 0.0 in LP_MONOTONE_GRID

    def test_monotone_on_seeded_pairs(self):
        rng = SplitMix64(5150)
        for _ in range(100):
            a = rng.uniform(0.1, 10.0)
            b = a + rng.uniform(0.05, 5.0)
            assert lp_monotone_nondecreasing(a, b), (a, b)


def _monomial_fn(n: int) -> core.TestFunction:
    wide = Interval(1e-3, 1e3)
    return core.TestFunction(
        f"x^{n}",
        lambda x: x ** n,
        lambda x: n * x ** (n - 1),
        lambda x: n * (n - 1) * x ** (n - 2),
        window=wide, domain=wide)


_NEG_LN = core.TestFunction("-ln", lambda x: -math.log(x), lambda x: -1.0 / x,
                            lambda x: 1.0 / (x * x),
                            window=Interval(1e-3, 1e3), domain=Interval(1e-3, 1e3))

_INV = core.TestFunction("1/x", lambda x: 1.0 / x, lambda x: -1.0 / (x * x),
                         lambda x: 2.0 / x ** 3,
                         window=Interval(1e-3, 1e3), domain=Interval(1e-3, 1e3))


class TestMonomialQ1Proposition:
    def test_equality_at_cubic_case(self):
        report = check_prop_monomial_q1(1.0, 2.0, 3)
        assert report.true_gap == pytest.approx(0.375, abs=1e-15)
        assert report.bound == pytest.approx(0.375, abs=1e-15)
        assert abs(report.slack) <= 1e-12
        assert report.valid

    def test_uncorrected_constant_is_refuted_there(self):
        # the /48 constant gives half the /24 bound, below the gap
        report = check_prop_monomial_q1(1.0, 2.0, 3)
        assert report.bound == pytest.approx(0.375, abs=1e-15)
        assert report.bound / 2 < report.true_gap

    def test_narrow_interval(self):
        report = check_prop_monomial_q1(1.0, 1.01, 4)
        assert report.valid and report.true_gap < 1e-3

    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_rejects_small_coefficient(self, n):
        with pytest.raises(HypothesisError):
            check_prop_monomial_q1(1.0, 2.0, n)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            check_prop_monomial_q1(2.0, 1.0, 3)
        with pytest.raises(DomainError):
            check_prop_monomial_q1(-1.0, 2.0, 3)

    def test_rejects_non_integer_exponent(self):
        with pytest.raises(DomainError):
            check_prop_monomial_q1(1.0, 2.0, 2.5)


class TestIdentricProposition:
    def test_one_two(self):
        report = check_prop_identric(1.0, 2.0, PQ2)
        assert report.true_gap == pytest.approx(0.019170746988273763, rel=1e-12)
        assert report.bound == pytest.approx(0.040745015032516554, rel=1e-12)
        assert report.valid

    def test_two_three(self):
        report = check_prop_identric(2.0, 3.0, PQ2)
        assert report.true_gap == pytest.approx(0.0067482269897166098, rel=1e-12)
        assert report.bound == pytest.approx(0.010814174654442665, rel=1e-12)
        assert report.valid

    def test_close_pair(self):
        assert check_prop_identric(7.3, 7.3000001, PQ2).valid

    def test_degenerate_limit(self):
        report = check_prop_identric(1.0, 1.0 + 1e-6, PQ2)
        assert report.true_gap == pytest.approx(0.0, abs=1e-10)
        assert report.bound == pytest.approx(0.0, abs=1e-10)
        assert report.valid


class TestMonomialPowerMeanProposition:
    def test_cubic_with_q_two(self):
        report = check_prop_monomial_pm(1.0, 2.0, 3, 2.0)
        assert report.bound == pytest.approx(0.39528470752104744, rel=1e-12)
        assert report.true_gap == pytest.approx(0.375, abs=1e-15)
        assert report.valid

    def test_quartic_with_q_two(self):
        report = check_prop_monomial_pm(1.0, 2.0, 4, 2.0)
        assert report.true_gap == pytest.approx(1.1375, abs=1e-14)
        assert report.bound == pytest.approx(1.4577379737113251, rel=1e-12)
        assert report.valid

    def test_continuous_at_q_one(self):
        near_one = check_prop_monomial_pm(1.0, 2.0, 3, 1.0 + 1e-9)
        assert near_one.bound == pytest.approx(0.375, rel=1e-6)

    def test_rejects_q_at_most_one(self):
        with pytest.raises(DomainError):
            check_prop_monomial_pm(1.0, 2.0, 3, 1.0)


class TestReciprocalPropositions:
    def test_power_mean_variant(self):
        report = check_prop_reciprocal_pm(1.0, 2.0, 2.0)
        assert report.true_gap == pytest.approx(0.026480513893278643, rel=1e-12)
        assert report.bound == pytest.approx(0.059384136723913436, rel=1e-12)
        assert report.valid

    def test_power_mean_variant_two_three(self):
        report = check_prop_reciprocal_pm(2.0, 3.0, 3.0)
        assert report.true_gap == pytest.approx(0.005465108108164382, rel=1e-12)
        assert report.bound == pytest.approx(0.008338788460746103, rel=1e-12)

    def test_power_mean_variant_needs_q_above_one(self):
        with pytest.raises(DomainError):
            check_prop_reciprocal_pm(1.0, 2.0, 1.0)

    def test_quasi_variant(self):
        report = check_prop_reciprocal_quasi(1.0, 2.0, 1.0)
        assert report.bound == pytest.approx(1.0 / 12.0, abs=1e-16)
        assert report.true_gap == pytest.approx(0.026480513893278643, rel=1e-12)
        assert report.valid

    def test_close_pair(self):
        assert check_prop_reciprocal_pm(7.3, 7.3000001, 2.0).valid
        assert check_prop_reciprocal_quasi(7.3, 7.3000001, 1.0).valid

    def test_quasi_variant_is_q_independent(self):
        assert check_prop_reciprocal_quasi(1.0, 2.0, 7.0).bound == \
            check_prop_reciprocal_quasi(1.0, 2.0, 1.0).bound

    def test_quasi_variant_two_four(self):
        report = check_prop_reciprocal_quasi(2.0, 4.0, 1.0)
        assert report.bound == pytest.approx(1.0 / 24.0, abs=1e-16)
        assert report.true_gap == pytest.approx(0.013240256946639321, rel=1e-12)
        assert report.valid


class TestMonomialQuasiProposition:
    def test_cubic(self):
        report = check_prop_monomial_quasi(1.0, 2.0, 3, PQ2)
        assert report.bound == pytest.approx(0.6708203932499369, rel=1e-12)
        assert report.true_gap == pytest.approx(0.375, abs=1e-15)
        assert report.valid

    def test_quartic(self):
        report = check_prop_monomial_quasi(1.0, 2.0, 4, PQ2)
        assert report.bound == pytest.approx(2.6832815729997476, rel=1e-12)
        assert report.true_gap == pytest.approx(1.1375, abs=1e-14)

    def test_negative_exponent(self):
        # x^-2 has decreasing |f''| = 6 x^-4, hence quasi-convex
        report = check_prop_monomial_quasi(1.0, 2.0, -2, PQ2)
        assert report.true_gap == pytest.approx(1.0 / 18.0, rel=1e-13)
        assert report.bound == pytest.approx(0.33541019662496846, rel=1e-12)
        assert report.valid


class TestOneReportPath:
    """Every proposition goes through one path: the pair, q and n are
    refused in that order, and a result past the float range is refused."""

    @pytest.mark.parametrize("theorem, check, args", [
        # 2/a^3 divides by a cube that underflowed to 0
        ("prop_reciprocal_pm", check_prop_reciprocal_pm, (1e-110, 1.0, 2.0)),
        ("prop_reciprocal_quasi", check_prop_reciprocal_quasi, (1e-110, 1.0)),
        # 1/a^2 divides by a square that underflowed to 0
        ("prop_identric", check_prop_identric, (1e-200, 1.0, PQ2)),
        # the mean value of x^3 overflows
        ("prop_monomial_q1", check_prop_monomial_q1, (1e200, 2e200, 3)),
        ("prop_monomial_pm", check_prop_monomial_pm, (1e150, 2e150, 4, 2.0)),
        # 6 a^-5 overflows at the small end
        ("prop_monomial_quasi", check_prop_monomial_quasi, (1e-200, 1.0, -3, PQ2)),
    ])
    def test_a_result_past_the_float_range_is_refused(self, theorem, check, args):
        a, b = args[:2]
        with pytest.raises(core.EvaluationError) as err:
            check(*args)
        assert str(err.value) == f"the {theorem} bound on [{a}, {b}] is past the float range"

    def test_an_infinite_bound_is_refused_though_nothing_raised(self):
        # a^-5 is a float near 1e308, |f''(a)| = 12 a^-5 is not: the product
        # raises nothing and the bound reads inf, which bounds nothing
        with pytest.raises(core.EvaluationError, match="prop_monomial_q1 bound on"):
            check_prop_monomial_q1(2.5e-62, 1.0, -3)

    @pytest.mark.parametrize("theorem, check, args", [
        # 12 a^-6 underflows to 0 at both ends; the gap, 8.33e-253, does not
        ("prop_monomial_q1", check_prop_monomial_q1, (1e60, 1e60 * (1 + 1e-6), -4)),
        ("prop_monomial_pm", check_prop_monomial_pm, (1e60, 1e60 * (1 + 1e-6), -4, 2.0)),
        ("prop_monomial_quasi", check_prop_monomial_quasi, (1e60, 1e60 * (1 + 1e-6), -4, PQ2)),
    ])
    def test_an_endpoint_second_derivative_that_underflowed_is_refused(self, theorem, check,
                                                                       args):
        # every generator's exact |f''| is nonzero on a > 0, so a 0.0 is an
        # underflow: the bound from it, 0.0, would sit below the gap and
        # still read valid
        a, b = args[:2]
        with pytest.raises(core.EvaluationError) as err:
            check(*args)
        assert str(err.value) == f"the {theorem} bound on [{a}, {b}] is past the float range"

    def test_a_result_inside_the_float_range_is_reported(self):
        # 2/a^3 = 2e300 is a float, and so is the bound
        report = check_prop_reciprocal_pm(1e-100, 1.0, 2.0)
        assert math.isfinite(report.bound) and math.isfinite(report.true_gap)
        assert report.valid

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_exponent_is_not_an_integer(self, n):
        for check in (lambda: check_prop_monomial_q1(1.0, 2.0, n),
                      lambda: check_prop_monomial_pm(1.0, 2.0, n, 2.0),
                      lambda: check_prop_monomial_quasi(1.0, 2.0, n, PQ2)):
            with pytest.raises(DomainError, match="must be an integer"):
                check()

    def test_the_pair_is_refused_before_q_and_q_before_n(self):
        for check in (lambda: check_prop_monomial_pm(2.0, 1.0, 2, 1.0),
                      lambda: check_prop_reciprocal_pm(2.0, 1.0, 1.0)):
            with pytest.raises(DomainError, match="interval requires a < b"):
                check()
        with pytest.raises(DomainError, match="needs q > 1"):
            check_prop_monomial_pm(1.0, 2.0, 2, 1.0)


class TestAgreementWithGeneralBounds:
    """Each inequality must be the matching endpoint bound for its generator."""

    def test_monomial_bounds_match_theorem_routes(self):
        rng = SplitMix64(808017)
        for _ in range(30):
            a = rng.uniform(0.2, 8.0)
            b = a + rng.uniform(0.1, 2.0)
            n = rng.choice((-4, -3, -2, 3, 4, 5))
            q = rng.uniform(1.05, 4.0)
            iv = Interval(a, b)
            nn = abs(n * (n - 1))
            d2a, d2b = nn * a ** (n - 2), nn * b ** (n - 2)
            assert check_prop_monomial_q1(a, b, n).bound == pytest.approx(
                bound_convex_q1(iv, d2a, d2b), rel=1e-12)
            assert check_prop_monomial_pm(a, b, n, q).bound == pytest.approx(
                bound_convex_powermean(iv, d2a, d2b, q), rel=1e-12)
            pair = ConjugatePair.from_q(q)
            assert check_prop_monomial_quasi(a, b, n, pair).bound == pytest.approx(
                bound_quasi_holder(iv, d2a, d2b, pair), rel=1e-12)

    def test_reciprocal_and_identric_bounds_match_theorem_routes(self):
        rng = SplitMix64(606060)
        for _ in range(30):
            a = rng.uniform(0.2, 8.0)
            b = a + rng.uniform(0.1, 2.0)
            q = rng.uniform(1.05, 4.0)
            iv = Interval(a, b)
            assert check_prop_reciprocal_pm(a, b, q).bound == pytest.approx(
                bound_convex_powermean(iv, 2.0 / a ** 3, 2.0 / b ** 3, q), rel=1e-12)
            assert check_prop_reciprocal_quasi(a, b, q).bound == pytest.approx(
                bound_quasi_powermean(iv, 2.0 / a ** 3, 2.0 / b ** 3, q), rel=1e-12)
            pair = ConjugatePair.from_q(q)
            assert check_prop_identric(a, b, pair).bound == pytest.approx(
                bound_convex_holder(iv, 1.0 / (a * a), 1.0 / (b * b), pair), rel=1e-12)

    def test_every_proposition_holds_on_close_pairs(self):
        for a, b in _close_pairs(777, 500):
            for report in (check_prop_monomial_q1(a, b, 6), check_prop_identric(a, b, PQ2),
                           check_prop_monomial_pm(a, b, -2, 2.0),
                           check_prop_reciprocal_pm(a, b, 2.0),
                           check_prop_reciprocal_quasi(a, b, 1.0),
                           check_prop_monomial_quasi(a, b, 4, PQ2)):
                assert report.valid, (a, b, report)

    def test_gaps_match_quadrature_oracle(self, mean_at):
        def gap(fn, iv):
            return abs(mean_at(fn, iv, 1e-11) - fn.f(iv.midpoint))

        rng = SplitMix64(515253)
        for _ in range(10):
            a = rng.uniform(0.3, 5.0)
            b = a + rng.uniform(0.2, 2.0)
            n = rng.choice((-4, -3, -2, 3, 4, 5))
            iv = Interval(a, b)
            assert check_prop_monomial_q1(a, b, n).true_gap == pytest.approx(
                gap(_monomial_fn(n), iv), abs=1e-9)
            assert check_prop_reciprocal_pm(a, b, 2.0).true_gap == pytest.approx(
                gap(_INV, iv), abs=1e-9)
            assert check_prop_identric(a, b, PQ2).true_gap == pytest.approx(
                gap(_NEG_LN, iv), abs=1e-9)


# The six propositions written out by hand, as closed forms in a, b, n, p, q.
def _ref_monomial_q1(a, b, n):
    return abs(n * (n - 1)) * (b - a) ** 2 * arithmetic_mean(a ** (n - 2), b ** (n - 2)) / 24.0


def _ref_identric(a, b, pq):
    amean = arithmetic_mean(a ** (2.0 * pq.q), b ** (2.0 * pq.q))
    return ((b - a) ** 2 / (8.0 * a * a * b * b * (2.0 * pq.p + 1.0) ** (1.0 / pq.p))
            * amean ** (1.0 / pq.q))


def _ref_monomial_pm(a, b, n, q):
    amean = arithmetic_mean(a ** (q * (n - 2)), b ** (q * (n - 2)))
    return abs(n * (n - 1)) * (b - a) ** 2 / 24.0 * amean ** (1.0 / q)


def _ref_reciprocal_pm(a, b, q):
    return ((b - a) ** 2 / 24.0 * 2.0 ** ((q - 1.0) / q) / (a ** 3 * b ** 3)
            * (a ** (3.0 * q) + b ** (3.0 * q)) ** (1.0 / q))


def _ref_reciprocal_quasi(a, b):
    return (b - a) ** 2 / 24.0 * max(2.0 / a ** 3, 2.0 / b ** 3)


def _ref_monomial_quasi(a, b, n, pq):
    return (abs(n * (n - 1)) * (b - a) ** 2 / (8.0 * (2.0 * pq.p + 1.0) ** (1.0 / pq.p))
            * max(a ** (n - 2), b ** (n - 2)))


class TestReferenceClosedForms:
    """The propositions, built from the bound formulas, against their closed forms."""

    REL = 1e-13

    def test_seeded_draws(self):
        rng = SplitMix64(20100503)
        for _ in range(500):
            a = rng.uniform(0.1, 10.0)
            b = a + rng.uniform(0.05, 10.0)
            n = rng.choice((-4, -3, -2, 3, 4, 5, 6))
            q = rng.uniform(1.05, 4.0)
            q_quasi = rng.uniform(1.0, 4.0)
            pair = ConjugatePair.from_q(q)
            cases = [
                (check_prop_monomial_q1(a, b, n).bound, _ref_monomial_q1(a, b, n)),
                (check_prop_identric(a, b, pair).bound, _ref_identric(a, b, pair)),
                (check_prop_monomial_pm(a, b, n, q).bound, _ref_monomial_pm(a, b, n, q)),
                (check_prop_reciprocal_pm(a, b, q).bound, _ref_reciprocal_pm(a, b, q)),
                (check_prop_reciprocal_quasi(a, b, q_quasi).bound, _ref_reciprocal_quasi(a, b)),
                (check_prop_monomial_quasi(a, b, n, pair).bound,
                 _ref_monomial_quasi(a, b, n, pair)),
            ]
            for got, ref in cases:
                assert got == pytest.approx(ref, rel=self.REL, abs=0.0), (a, b, n, q)

    def test_cubic_equality_case(self):
        report = check_prop_monomial_q1(1.0, 2.0, 3)
        assert report.bound == pytest.approx(_ref_monomial_q1(1.0, 2.0, 3), rel=self.REL)
        assert report.bound == pytest.approx(report.true_gap, rel=self.REL)

    def test_identric_orientation(self):
        # the gap is ln(A/I) >= 0, not ln(I/A) <= 0
        report = check_prop_identric(1.0, 2.0, PQ2)
        assert report.true_gap == pytest.approx(
            math.log(arithmetic_mean(1.0, 2.0) / identric_mean(1.0, 2.0)), rel=self.REL)
        assert report.true_gap > 0.0
