import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
