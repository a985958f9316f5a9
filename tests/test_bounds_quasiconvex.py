import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhbounds.bounds_convex import bound_convex_q1
from hhbounds.bounds_quasiconvex import (
    bound_quasi_holder,
    bound_quasi_monotone,
    bound_quasi_powermean,
    bound_quasi_q1,
)
from hhbounds.core import ConjugatePair, DomainError, Interval

UNIT = Interval(0.0, 1.0)
ONE_TWO = Interval(1.0, 2.0)
PQ2 = ConjugatePair(2.0, 2.0)

nonneg = st.floats(min_value=0.0, max_value=50.0)


class TestEndpointSupBound:
    def test_reciprocal_plugin(self):
        # sup of |f''| of 1/x on [1,2] is 2; the true gap 0.0264805 sits below
        assert bound_quasi_q1(ONE_TWO, 2.0, 0.25) == pytest.approx(1.0 / 12.0, abs=1e-16)

    def test_equal_endpoints(self):
        assert bound_quasi_q1(UNIT, 5.0, 5.0) == pytest.approx(5.0 / 24.0, rel=1e-15)

    def test_zero_case(self):
        assert bound_quasi_q1(UNIT, 0.0, 0.0) == 0.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(DomainError):
            bound_quasi_q1(UNIT, -0.1, 1.0)

    @given(nonneg, nonneg)
    def test_never_below_convex_bound(self, x, y):
        # max >= mean, so the quasi bound dominates the convex one pointwise
        assert bound_quasi_q1(UNIT, x, y) >= bound_convex_q1(UNIT, x, y) - 1e-15


class TestMonotoneCorollary:
    def test_increasing_uses_right_endpoint(self):
        # x^3 on [0, 1]: |f''| = 6x rises from 0 to 6
        got = bound_quasi_monotone(UNIT, 0.0, 6.0)
        assert got == pytest.approx(0.25, abs=1e-15)  # |f''(1)| = 6 over 24

    def test_decreasing_uses_left_endpoint(self):
        # 1/x on [1, 2]: |f''| = 2/x^3 falls from 2 to 1/4
        got = bound_quasi_monotone(ONE_TWO, 2.0, 0.25)
        assert got == pytest.approx(1.0 / 12.0, abs=1e-16)

    def test_constant_accepts_both_directions(self):
        iv = Interval(-1.0, 3.0)
        expected = iv.width ** 2 * 2.0 / 24.0
        assert bound_quasi_monotone(iv, 2.0, 2.0) == pytest.approx(expected, rel=1e-15)

    def test_rejects_negative_inputs(self):
        with pytest.raises(DomainError):
            bound_quasi_monotone(ONE_TWO, -1.0, 2.0)

    @given(nonneg, nonneg)
    def test_agrees_with_endpoint_sup_bound(self, x, y):
        # monotone |f''| is quasi-convex, and both bounds take the larger end
        assert bound_quasi_monotone(ONE_TWO, x, y) == bound_quasi_q1(ONE_TWO, x, y)


class TestHolderBound:
    def test_reciprocal_plugin(self):
        expected = 0.11180339887498948  # 2 / (8 sqrt(5))
        assert bound_quasi_holder(ONE_TWO, 2.0, 0.25, PQ2) == pytest.approx(
            expected, rel=1e-12)

    def test_quartic_plugin(self):
        expected = 0.6708203932499369  # 12 / (8 sqrt(5))
        assert bound_quasi_holder(UNIT, 0.0, 12.0, PQ2) == pytest.approx(expected, rel=1e-12)

    def test_zero_case(self):
        assert bound_quasi_holder(UNIT, 0.0, 0.0, ConjugatePair.from_q(3.0)) == 0.0


class TestPowerMeanBound:
    def test_reduces_to_endpoint_sup_at_q_one(self):
        assert bound_quasi_powermean(ONE_TWO, 2.0, 0.25, 1.0) == \
            bound_quasi_q1(ONE_TWO, 2.0, 0.25)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 5.0, 7.0, 20.0])
    def test_independent_of_q(self, q):
        # the endpoint sup commutes with the q-th power
        assert bound_quasi_powermean(ONE_TWO, 2.0, 0.25, q) == pytest.approx(
            1.0 / 12.0, abs=1e-16)

    def test_equal_endpoints(self):
        assert bound_quasi_powermean(UNIT, 6.0, 6.0, 5.0) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_q_below_one(self):
        with pytest.raises(DomainError):
            bound_quasi_powermean(UNIT, 1.0, 1.0, 0.99)

    @given(nonneg, nonneg, st.floats(min_value=1.01, max_value=20.0))
    def test_dominated_by_holder_variant(self, x, y, q):
        pm = bound_quasi_powermean(UNIT, x, y, q)
        holder = bound_quasi_holder(UNIT, x, y, ConjugatePair.from_q(q))
        assert pm <= holder + 1e-12 * max(1.0, holder)
