import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhbounds.certifier import ULPS
from hhbounds.core import (
    ConjugatePair,
    DomainError,
    Interval,
    conjugate_of,
    polynomial,
)


class TestInterval:
    def test_width_and_midpoint(self):
        iv = Interval(1.0, 4.0)
        assert iv.width == 3.0
        assert iv.midpoint == 2.5

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (0.0, -1.0)])
    def test_rejects_unordered_endpoints(self, a, b):
        with pytest.raises(DomainError):
            Interval(a, b)

    def test_rejects_non_finite_endpoints(self):
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)
        with pytest.raises(DomainError):
            Interval(math.nan, 1.0)

    @pytest.mark.parametrize("a,b", [(-1.7e308, 1.7e308), (1e308, 1.7e308)],
                             ids=["width", "midpoint"])
    def test_rejects_interval_whose_arithmetic_overflows(self, a, b):
        with pytest.raises(DomainError, match="overflows"):
            Interval(a, b)

    def test_rejects_interval_without_interior(self):
        with pytest.raises(DomainError):
            Interval(1.0, math.nextafter(1.0, 2.0))

    def test_midpoint_strictly_inside(self):
        iv = Interval(-2.0, 5.0)
        assert iv.a < iv.midpoint < iv.b

    def test_containment(self):
        assert Interval(0.0, 4.0).contains(Interval(1.0, 2.0))
        assert not Interval(0.0, 4.0).contains(Interval(1.0, 5.0))


class TestConjugate:
    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 1.5), (1.25, 5.0)])
    def test_known_pairs(self, p, q):
        assert conjugate_of(p) == pytest.approx(q, rel=1e-15)

    @pytest.mark.parametrize("p", [1.0, 0.5, -3.0])
    def test_rejects_p_at_most_one(self, p):
        with pytest.raises(DomainError):
            conjugate_of(p)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(DomainError, match=r"\(1, inf\), got (inf|nan)"):
            conjugate_of(p)

    @given(st.floats(min_value=1.0001, max_value=1000.0))
    def test_involution(self, p):
        assert conjugate_of(conjugate_of(p)) == pytest.approx(p, rel=1e-12)

    def test_pair_validates_sum_of_reciprocals(self):
        ConjugatePair(2.0, 2.0)
        with pytest.raises(DomainError):
            ConjugatePair(2.0, 3.0)
        with pytest.raises(DomainError):
            ConjugatePair(1.0, 2.0)

    def test_pair_constructors_agree(self):
        assert ConjugatePair.from_p(3.0) == ConjugatePair(3.0, 1.5)
        assert ConjugatePair.from_q(1.5).p == pytest.approx(3.0, rel=1e-15)


class TestCatalog:
    REQUIRED = {"x2", "x3", "x4", "x5", "inv_x", "neg_ln", "exp", "affine",
                "x_5_2", "sin"}

    def test_expected_entries_present(self, by_id):
        assert self.REQUIRED <= set(by_id)

    def test_x2_has_constant_second_derivative(self, by_id):
        fn = by_id["x2"]
        assert fn.d2(-0.7) == 2.0 == fn.d2(1.2)

    def test_inv_x_second_derivative(self, by_id):
        fn = by_id["inv_x"]
        assert fn.defined_on(Interval(1.0, 2.0))
        assert fn.d2(1.5) == pytest.approx(2.0 / 1.5 ** 3, rel=1e-15)

    def test_affine_has_zero_second_derivative(self, by_id):
        fn = by_id["affine"]
        assert fn.f(0.5) == 2.5
        assert fn.d2(1.3) == 0.0

    def test_windows_stay_inside_domains(self, catalog):
        for fn in catalog:
            assert fn.defined_on(fn.window)


class TestPolynomial:
    def test_matches_manual_cubic(self):
        fn = polynomial([1.0, -2.0, 0.5, 4.0])
        for x in (-1.3, 0.0, 0.7, 2.1):
            assert fn.f(x) == pytest.approx(1 - 2 * x + 0.5 * x * x + 4 * x ** 3, rel=1e-14)
            assert fn.d1(x) == pytest.approx(-2 + x + 12 * x * x, rel=1e-14)
            assert fn.d2(x) == pytest.approx(1 + 24 * x, rel=1e-14)

    def test_constant_and_affine_have_zero_derivatives(self):
        c = polynomial([7.0])
        assert c.d1(3.0) == 0.0 and c.d2(3.0) == 0.0
        aff = polynomial([1.0, 2.0])
        assert aff.d1(3.0) == 2.0 and aff.d2(3.0) == 0.0

    def test_rejects_empty_coefficients(self):
        with pytest.raises(DomainError):
            polynomial([])


#: the catalog's f' and f'''' in mpmath, written from the calculus
def _exact_derivatives(mp):
    three_halves = mp.mpf(3) / 2
    return {
        "x2": (lambda x: 2 * x, lambda x: mp.mpf(0)),
        "x3": (lambda x: 3 * x ** 2, lambda x: mp.mpf(0)),
        "x4": (lambda x: 4 * x ** 3, lambda x: mp.mpf(24)),
        "x5": (lambda x: 5 * x ** 4, lambda x: 120 * x),
        "inv_x": (lambda x: -1 / x ** 2, lambda x: 24 / x ** 5),
        "neg_ln": (lambda x: -1 / x, lambda x: 6 / x ** 4),
        "exp": (mp.exp, mp.exp),
        "affine": (lambda x: mp.mpf(3), lambda x: mp.mpf(0)),
        "x_5_2": (lambda x: mp.mpf(5) / 2 * x ** three_halves,
                  lambda x: -mp.mpf(15) / 16 / x ** three_halves),
        "sin": (mp.cos, mp.sin),
    }


def _exact_functions(mp):
    return {"x2": lambda x: x ** 2, "x3": lambda x: x ** 3, "x4": lambda x: x ** 4,
            "x5": lambda x: x ** 5, "inv_x": lambda x: 1 / x, "neg_ln": lambda x: -mp.log(x),
            "exp": mp.exp, "affine": lambda x: 3 * x + 1,
            "x_5_2": lambda x: x ** (mp.mpf(5) / 2), "sin": mp.sin}


class TestCatalogDerivatives:
    """f' and f'''' of every catalog entry: the closed forms are the
    derivatives of f, and each evaluation is within the certifier's ``ULPS``
    ulp of the exact value (its evaluation-error model)."""

    def test_closed_forms_are_the_derivatives_of_f(self, catalog):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        with mp.workdps(50):
            exact = _exact_derivatives(mp)
            functions = _exact_functions(mp)
            for fn in catalog:
                for x in (fn.window.a + 0.3 * fn.window.width, fn.window.midpoint):
                    for order, ref in zip((1, 4), exact[fn.id]):
                        numeric = mp.diff(functions[fn.id], mp.mpf(x), order)
                        assert abs(numeric - ref(mp.mpf(x))) <= mp.mpf(10) ** -30, (fn.id, order)

    def test_evaluations_within_ulps_of_50_digit_values(self, catalog):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        rng = random.Random(2021)
        with mp.workdps(50):
            exact = _exact_derivatives(mp)
            for fn in catalog:
                xs = [rng.uniform(fn.window.a, fn.window.b) for _ in range(400)]
                for name, ref in zip(("d1", "d4"), exact[fn.id]):
                    evaluate = getattr(fn, name)
                    for x in xs:
                        want = ref(mp.mpf(x))
                        got = evaluate(x)
                        excess = abs(mp.mpf(got) - want) - ULPS * math.ulp(float(want))
                        assert excess <= 0, (fn.id, name, x, got, float(want))


class TestPolynomialFourthDerivative:
    def test_exact_from_the_coefficients(self):
        cs = [3.0, -1.0, 0.5, 2.0, -0.25, 1.5, 0.75]
        fn = polynomial(cs)
        # f'''' = sum over i >= 4 of i(i-1)(i-2)(i-3) c_i x^(i-4), in rationals
        for x in (-1.5, -0.375, 0.0, 0.5, 1.25):
            exact = sum(Fraction(i * (i - 1) * (i - 2) * (i - 3)) * Fraction(c)
                        * Fraction(x) ** (i - 4) for i, c in enumerate(cs) if i >= 4)
            assert fn.d4(x) == exact

    def test_degree_below_four_has_zero_fourth_derivative(self):
        for cs in ([7.0], [1.0, 2.0], [1.0, -2.0, 0.5, 4.0]):
            assert polynomial(cs).d4(0.3) == 0.0
