import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hhbounds.bounds_convex import (
    baseline_first_derivative,
    bound_convex_holder,
    bound_convex_powermean,
    bound_convex_q1,
    power_mean,
)
from hhbounds.core import ConjugatePair, DomainError, Interval

UNIT = Interval(0.0, 1.0)
ONE_TWO = Interval(1.0, 2.0)
PQ2 = ConjugatePair(2.0, 2.0)

nonneg = st.floats(min_value=0.0, max_value=50.0)
exponents = st.floats(min_value=1.0 + 1e-6, max_value=10.0)


class TestEndpointMeanBound:
    def test_sharp_for_square(self):
        # equals the true gap 1/12 of x^2 on [0,1]
        assert bound_convex_q1(UNIT, 2.0, 2.0) == pytest.approx(1.0 / 12.0, abs=1e-16)

    def test_quartic_plugin(self):
        assert bound_convex_q1(UNIT, 0.0, 12.0) == pytest.approx(0.25, abs=1e-15)

    def test_sharp_for_cubic(self):
        # equals the exact gap (a+b)(b-a)^2/8 of x^3 on [1,2]
        assert bound_convex_q1(ONE_TWO, 6.0, 12.0) == pytest.approx(0.375, abs=1e-15)

    def test_rejects_negative_inputs(self):
        with pytest.raises(DomainError):
            bound_convex_q1(UNIT, -1.0, 2.0)


class TestHolderBound:
    def test_quartic_plugin(self):
        expected = 0.4743416490252569  # sqrt(72) / (8 sqrt(5))
        assert bound_convex_holder(UNIT, 0.0, 12.0, PQ2) == pytest.approx(expected, rel=1e-12)

    def test_constant_second_derivative_collapses(self):
        expected = 0.11180339887498948  # 2 / (8 sqrt(5))
        assert bound_convex_holder(UNIT, 2.0, 2.0, PQ2) == pytest.approx(expected, rel=1e-12)

    def test_zero_case(self):
        assert bound_convex_holder(UNIT, 0.0, 0.0, ConjugatePair.from_p(1.7)) == 0.0


class TestPowerMeanBound:
    def test_quartic_plugin(self):
        expected = 0.35355339059327373  # sqrt(72) / 24, below the Hoelder 0.474342
        got = bound_convex_powermean(UNIT, 0.0, 12.0, 2.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < bound_convex_holder(UNIT, 0.0, 12.0, PQ2)

    def test_equal_values_are_a_fixed_point(self):
        assert bound_convex_powermean(UNIT, 2.0, 2.0, 7.0) == pytest.approx(
            1.0 / 12.0, rel=1e-14)

    def test_q_one_recovers_endpoint_mean_bound(self):
        assert bound_convex_powermean(ONE_TWO, 6.0, 12.0, 1.0) == pytest.approx(0.375, abs=1e-15)

    @given(nonneg, nonneg)
    def test_reduction_at_q_one_is_bitwise(self, x, y):
        assert bound_convex_powermean(UNIT, x, y, 1.0) == bound_convex_q1(UNIT, x, y)

    def test_rejects_q_below_one(self):
        with pytest.raises(DomainError):
            bound_convex_powermean(UNIT, 1.0, 1.0, 0.9)

    @given(nonneg, nonneg, exponents)
    def test_dominated_by_holder_bound(self, x, y, q):
        pm = bound_convex_powermean(UNIT, x, y, q)
        holder = bound_convex_holder(UNIT, x, y, ConjugatePair.from_q(q))
        assert pm <= holder + 1e-12 * max(1.0, holder)

    @given(nonneg, nonneg, exponents, exponents)
    def test_nondecreasing_in_q(self, x, y, q1, q2):
        lo, hi = sorted((q1, q2))
        b_lo = bound_convex_powermean(UNIT, x, y, lo)
        b_hi = bound_convex_powermean(UNIT, x, y, hi)
        assert b_lo <= b_hi + 1e-12 * max(1.0, b_hi)


class TestPowerMeanHelper:
    @given(nonneg, nonneg)
    def test_between_min_and_max(self, x, y):
        pm = power_mean(x, y, 3.0)
        assert min(x, y) - 1e-12 <= pm <= max(x, y) + 1e-12

    def test_large_inputs_do_not_overflow(self):
        assert power_mean(1e200, 1e200, 10.0) == pytest.approx(1e200, rel=1e-12)
        assert power_mean(1e200, 0.0, 20.0) == pytest.approx(
            1e200 * 0.5 ** 0.05, rel=1e-12)

    def test_q_one_is_arithmetic_mean(self):
        assert power_mean(3.0, 5.0, 1.0) == 4.0

    @pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
    def test_nan_magnitude_is_refused(self, q):
        # the one check of the endpoint magnitudes asks that each is >= 0,
        # which a NaN fails
        for x, y in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError, match="nonnegative"):
                power_mean(x, y, q)

    @given(st.floats(min_value=0.0, max_value=1e308), st.floats(min_value=0.0, max_value=1e308))
    def test_q_infinite_is_the_maximum_bit_for_bit(self, x, y):
        # the quasi-convex bounds aggregate with q = inf
        assert power_mean(x, y, math.inf).hex() == max(x, y).hex()


class TestBaseline:
    def test_square_baseline_exceeds_second_derivative_bound(self):
        # the first-derivative route gives 0.25 for x^2 on [0,1], far above 1/12
        baseline = baseline_first_derivative(UNIT, 0.0, 2.0, 1.0)
        assert baseline == pytest.approx(0.25, abs=1e-15)
        assert baseline > bound_convex_q1(UNIT, 2.0, 2.0)

    def test_equal_values(self):
        assert baseline_first_derivative(UNIT, 1.0, 1.0, 3.0) == pytest.approx(
            0.25, rel=1e-14)

    def test_half_interval_plugin(self):
        assert baseline_first_derivative(Interval(0.0, 0.5), 0.0, 1.0, 1.0) == pytest.approx(
            0.0625, abs=1e-16)

    def test_rejects_q_below_one(self):
        with pytest.raises(DomainError):
            baseline_first_derivative(UNIT, 1.0, 1.0, 0.5)


class TestConstantComparison:
    # the paper's remark: the power-mean prefactor 1/24 is below the
    # Hoelder prefactor 1/(8 (2p+1)^(1/p)) for every p > 1, since
    # 3^p > 2p + 1 there, so on the same endpoint values and the same q
    # the power-mean bound is the sharper
    @staticmethod
    def _unit_bounds(p):
        # the power-mean and Hoelder bounds on [0, 1] with both |f''| = 1,
        # where each bound is its prefactor
        pq = ConjugatePair.from_p(p)
        return (bound_convex_powermean(UNIT, 1.0, 1.0, pq.q),
                bound_convex_holder(UNIT, 1.0, 1.0, pq))

    def test_p_two(self):
        power_mean_bound, holder_bound = self._unit_bounds(2.0)
        assert power_mean_bound == 1.0 / 24.0
        assert holder_bound == pytest.approx(0.05590169943749474, rel=1e-13)
        assert power_mean_bound < holder_bound

    def test_near_boundary(self):
        power_mean_bound, holder_bound = self._unit_bounds(1.01)
        assert holder_bound == pytest.approx(0.04184616026809696, rel=1e-12)
        assert power_mean_bound < holder_bound

    def test_large_p(self):
        power_mean_bound, holder_bound = self._unit_bounds(50.0)
        assert holder_bound == pytest.approx(0.11397867015278976, rel=1e-12)
        assert power_mean_bound < holder_bound

    def test_rejects_p_at_most_one(self):
        with pytest.raises(DomainError):
            self._unit_bounds(1.0)

    @given(st.floats(min_value=1.0, max_value=1e6, exclude_min=True), nonneg, nonneg,
           st.floats(min_value=1e-3, max_value=1e3))
    def test_holds_for_all_p(self, q, a, b, width):
        assume(max(a, b) >= 1e-300)
        iv = Interval(0.0, width)
        assert bound_convex_powermean(iv, a, b, q) < bound_convex_holder(
            iv, a, b, ConjugatePair.from_q(q))
