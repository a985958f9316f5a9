import dataclasses
import math

import pytest

import hhbounds.identity as identity
from hhbounds.core import Interval
from hhbounds.identity import (
    identity_lhs,
    identity_rhs,
    kernel_weighted_d2_integral,
)
from hhbounds.oracle import integrate
from hhbounds.rng import SplitMix64

UNIT = Interval(0.0, 1.0)


def two_sided_d2_integral(fn, iv, tol=1e-10):
    """Reference: the kernel-weighted f'' integral taken on both sides of
    the knot, each half to tol/2, with no use of the symmetry."""
    a, b = iv.a, iv.b
    d2 = fn.d2

    def left(t):
        return t * t * (d2(t * a + (1.0 - t) * b) + d2(t * b + (1.0 - t) * a))

    def right(t):
        u = 1.0 - t
        return u * u * (d2(t * a + u * b) + d2(t * b + u * a))

    half = 0.5 * tol
    return (integrate(left, Interval(0.0, 0.5), half).value
            + integrate(right, Interval(0.5, 1.0), half).value)


class TestRightHandSide:
    def test_square_gives_one_twelfth(self, by_id):
        # f'' = 2, so the right side is (1/4) * 2 * 2 * (1/12) = 1/12
        assert identity_rhs(by_id["x2"], UNIT) == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_affine_vanishes(self, by_id):
        assert identity_rhs(by_id["affine"], UNIT) == pytest.approx(0.0, abs=1e-13)

    def test_cubic_on_one_two(self, by_id):
        # true gap of x^3 on [1,2] is (a+b)(b-a)^2/8 = 3/8
        assert identity_rhs(by_id["x3"], Interval(1.0, 2.0)) == pytest.approx(0.375, abs=1e-10)

    def test_exponential_matches_its_gap(self, by_id):
        expected = 0.17520119364380146  # (e - 1/e)/2 - 1
        assert identity_rhs(by_id["exp"], Interval(-1.0, 1.0)) == pytest.approx(
            expected, abs=1e-10)


class TestSymmetricHalf:
    def test_one_quadrature_over_the_half_and_two_d2_calls_per_node(
            self, by_id, monkeypatch):
        calls = []

        def counting_integrate(f, iv, tol):
            result = integrate(f, iv, tol)
            calls.append((iv, tol, result))
            return result

        d2_calls = 0

        def counting_d2(x):
            nonlocal d2_calls
            d2_calls += 1
            return math.exp(x)

        monkeypatch.setattr(identity, "integrate", counting_integrate)
        fn = dataclasses.replace(by_id["exp"], d2=counting_d2)
        kernel_weighted_d2_integral(fn, Interval(-1.0, 2.0), tol=1e-10)
        assert len(calls) == 1
        iv, tol, result = calls[0]
        assert (iv.a, iv.b, tol) == (0.0, 0.5, 0.5e-10)
        assert d2_calls == 2 * result.evaluations

    def test_matches_the_two_sided_integral_within_tol(self, catalog):
        tol = 1e-10
        rng = SplitMix64(0x5EED_4A1F)
        for fn in catalog:
            ivs = [fn.window] + [rng.subinterval(fn.window) for _ in range(50)]
            for iv in ivs:
                got = kernel_weighted_d2_integral(fn, iv, tol)
                assert abs(got - two_sided_d2_integral(fn, iv, tol)) <= tol, (fn.id, iv)

    @pytest.mark.parametrize("fid,a,b,antiderivative", [
        ("exp", -1.0, 2.0, math.exp),
        ("inv_x", 0.3, 3.7, math.log),
        ("x_5_2", 0.25, 3.0, lambda x: x ** 3.5 / 3.5),
    ])
    def test_closed_form_gap_on_asymmetric_intervals(self, by_id, fid, a, b,
                                                     antiderivative):
        fn = by_id[fid]
        gap = (antiderivative(b) - antiderivative(a)) / (b - a) - fn.f(0.5 * (a + b))
        assert identity_rhs(fn, Interval(a, b)) == pytest.approx(gap, abs=1e-10)


def _residual(fn, iv):
    return abs(identity_lhs(fn, iv) - identity_rhs(fn, iv))


class TestResidual:
    @pytest.mark.parametrize("fid,a,b", [
        ("x4", 0.0, 1.0),
        ("inv_x", 1.0, 2.0),
        ("exp", -1.0, 1.0),
    ])
    def test_named_cases_are_quadrature_noise(self, by_id, fid, a, b):
        assert _residual(by_id[fid], Interval(a, b)) < 1e-9

    def test_full_catalog_on_windows(self, catalog):
        for fn in catalog:
            assert _residual(fn, fn.window) < 1e-9, fn.id

    def test_random_subintervals(self, catalog):
        rng = SplitMix64(424242)
        for fn in catalog:
            for _ in range(20):
                iv = rng.subinterval(fn.window)
                assert _residual(fn, iv) < 1e-9, (fn.id, iv)

    def test_an_interval_too_narrow_for_the_gap_tolerance(self, catalog):
        iv = Interval(0.0, 1e-320)
        for fn in catalog:
            if fn.defined_on(iv):
                assert math.isfinite(identity_lhs(fn, iv)), fn.id
                assert math.isfinite(identity_rhs(fn, iv)), fn.id

    def test_signed_left_side(self, by_id):
        # mean value of x^2 on [0,1] exceeds the midpoint value
        assert identity_lhs(by_id["x2"], UNIT) == pytest.approx(1.0 / 12.0, abs=1e-11)


class TestHalfCoefficientRegression:
    def test_doubled_coefficient_breaks_identity_on_square(self, by_id, mean_at):
        # With a (b-a)^2/2 leading coefficient the right side doubles to 1/6
        # for x^2 on [0,1], leaving a residual of exactly 1/12.
        fn = by_id["x2"]
        weighted = kernel_weighted_d2_integral(fn, UNIT, tol=1e-12)
        rhs_half = UNIT.width ** 2 / 2.0 * weighted
        residual = abs(mean_at(fn, UNIT, 1e-12) - fn.f(UNIT.midpoint) - rhs_half)
        assert rhs_half == pytest.approx(1.0 / 6.0, abs=1e-11)
        assert residual == pytest.approx(1.0 / 12.0, abs=1e-10)
