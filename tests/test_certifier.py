import dataclasses

import pytest

from hhbounds import certifier
from hhbounds.certifier import (
    MAX_SUBINTERVALS,
    CertTheorem,
    integrate_certified,
    refine_to_tolerance,
)
from hhbounds.core import ConvergenceError, DomainError, HypothesisError, Interval
from hhbounds.oracle import check_convex_abs_d2, check_quasiconvex_abs_d2, integrate

UNIT = Interval(0.0, 1.0)
LN2 = 0.6931471805599453


def cli_theorem(fn, iv):
    """The theorem `hh certify` picks for fn on iv, None if neither holds."""
    if check_convex_abs_d2(fn, iv):
        return CertTheorem.CONVEX_Q1
    if check_quasiconvex_abs_d2(fn, iv):
        return CertTheorem.QUASI_Q1
    return None


def counted(fn):
    """fn with f and f'' replaced by evaluators that count their calls."""
    calls = {"f": 0, "d2": 0}

    def count(key, ev):
        def wrapped(x):
            calls[key] += 1
            return ev(x)
        return wrapped

    return dataclasses.replace(fn, f=count("f", fn.f), d2=count("d2", fn.d2)), calls


class TestSingleResolution:
    def test_square_single_panel_hits_boundary(self, by_id):
        res = integrate_certified(by_id["x2"], UNIT, 1)
        assert res.estimate == 0.25
        assert res.error_radius == pytest.approx(1.0 / 12.0, abs=1e-16)
        # true value 1/3 lies exactly on the boundary of the certificate
        assert abs(1.0 / 3.0 - res.estimate) <= res.error_radius + 1e-15

    def test_square_two_panels(self, by_id):
        res = integrate_certified(by_id["x2"], UNIT, 2)
        assert res.estimate == pytest.approx(0.3125, abs=1e-15)
        assert res.error_radius == pytest.approx(1.0 / 48.0, abs=1e-16)
        assert abs(1.0 / 3.0 - res.estimate) == pytest.approx(1.0 / 48.0, abs=1e-15)

    def test_affine_is_exact_with_zero_radius(self, by_id):
        res = integrate_certified(by_id["affine"], Interval(0.0, 2.0), 5)
        assert res.error_radius == 0.0
        assert res.estimate == pytest.approx(8.0, abs=1e-14)

    def test_rejects_nonpositive_subinterval_count(self, by_id):
        with pytest.raises(DomainError):
            integrate_certified(by_id["x2"], UNIT, 0)

    def test_rejects_interval_outside_domain(self, by_id):
        with pytest.raises(DomainError):
            integrate_certified(by_id["inv_x"], Interval(0.0, 1.0), 4)

    def test_refuses_function_without_the_class(self, by_id):
        fn = by_id["sin"]
        for theorem in CertTheorem:
            with pytest.raises(HypothesisError):
                integrate_certified(fn, fn.window, 4, theorem)

    def test_quasi_theorem_uses_endpoint_sup(self, by_id):
        fn = by_id["inv_x"]
        iv = Interval(1.0, 2.0)
        convex = integrate_certified(fn, iv, 4, CertTheorem.CONVEX_Q1)
        quasi = integrate_certified(fn, iv, 4, CertTheorem.QUASI_Q1)
        assert quasi.estimate == convex.estimate
        assert quasi.error_radius > convex.error_radius


class TestEnclosure:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
    def test_reciprocal_encloses_log(self, by_id, n):
        res = integrate_certified(by_id["inv_x"], Interval(1.0, 2.0), n)
        assert abs(res.estimate - LN2) <= res.error_radius + 1e-15

    def test_tight_for_linear_second_derivative(self, by_id):
        # per-subinterval equality: |error| / radius is exactly 1 for x^3
        truth = 0.25
        for n in (1, 2, 4, 8):
            res = integrate_certified(by_id["x3"], UNIT, n)
            ratio = abs(res.estimate - truth) / res.error_radius
            assert 0.99 <= ratio <= 1.0 + 1e-12


class TestRefinement:
    def test_square_to_single_precision(self, by_id):
        res = refine_to_tolerance(by_id["x2"], UNIT, 1e-6)
        assert res.error_radius <= 1e-6
        assert abs(res.estimate - 1.0 / 3.0) <= res.error_radius

    def test_reciprocal_to_tight_tolerance(self, by_id):
        res = refine_to_tolerance(by_id["inv_x"], Interval(1.0, 2.0), 1e-8)
        assert res.error_radius <= 1e-8
        assert abs(res.estimate - LN2) <= res.error_radius + 1e-15

    def test_affine_needs_single_panel(self, by_id):
        res = refine_to_tolerance(by_id["affine"], Interval(0.0, 2.0), 1e-12)
        assert res.subintervals == 1
        assert res.error_radius == 0.0

    def test_radius_halves_quadratically(self, by_id):
        res1 = refine_to_tolerance(by_id["exp"], Interval(-1.0, 1.0), 1e-4)
        res2 = refine_to_tolerance(by_id["exp"], Interval(-1.0, 1.0), 2.5e-5)
        assert res2.subintervals <= 2 * res1.subintervals

    def test_rejects_nonpositive_tolerance(self, by_id):
        with pytest.raises(DomainError):
            refine_to_tolerance(by_id["x2"], UNIT, 0.0)

    def test_unreachable_tolerance_raises(self, by_id):
        with pytest.raises(ConvergenceError):
            refine_to_tolerance(by_id["x2"], UNIT, 1e-15)
        assert MAX_SUBINTERVALS == 1 << 20

    def test_rejects_interval_outside_domain(self, by_id):
        with pytest.raises(DomainError):
            refine_to_tolerance(by_id["inv_x"], Interval(0.0, 1.0), 1e-6, check_class=False)


class TestNestedSearch:
    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    def test_equals_single_pass_at_the_fewest_doublings(self, catalog, tol):
        checked = 0
        for fn in catalog:
            theorem = cli_theorem(fn, fn.window)
            if theorem is None:
                continue
            res = refine_to_tolerance(fn, fn.window, tol, theorem, check_class=False)
            n = res.subintervals
            assert res == integrate_certified(fn, fn.window, n, theorem, check_class=False)
            assert res.error_radius <= tol
            if n > 1:
                coarser = integrate_certified(fn, fn.window, n // 2, theorem, check_class=False)
                assert coarser.error_radius > tol, (fn.id, n)
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("fid, a, b, tol, theorem", [
        ("exp", -1.0, 1.0, 1e-8, CertTheorem.CONVEX_Q1),
        ("x4", -1.5, 1.5, 1e-6, CertTheorem.CONVEX_Q1),
        ("inv_x", 1.0, 2.0, 1e-8, CertTheorem.QUASI_Q1),
    ])
    def test_f_once_per_midpoint_and_d2_once_per_cut(self, by_id, fid, a, b, tol, theorem):
        fn, calls = counted(by_id[fid])
        res = refine_to_tolerance(fn, Interval(a, b), tol, theorem, check_class=False)
        assert res.subintervals > 1
        assert calls == {"f": res.subintervals, "d2": res.subintervals + 1}

    @pytest.mark.parametrize("fid, a, b, tol", [
        ("x4", -1.5, 1.5, 1e-12),
        ("x2", 0.0, 1.0, 1e-15),
    ])
    def test_convex_floor_fails_fast_without_evaluating_f(self, by_id, fid, a, b, tol):
        fn, calls = counted(by_id[fid])
        with pytest.raises(ConvergenceError, match="at least"):
            refine_to_tolerance(fn, Interval(a, b), tol, check_class=False)
        assert calls["f"] == 0
        assert calls["d2"] < 100

    def test_quasi_searches_to_the_cap_on_d2_alone(self, by_id, monkeypatch):
        # no floor exists without convexity; a lower cap keeps the full search short
        monkeypatch.setattr(certifier, "MAX_SUBINTERVALS", 1 << 10)
        fn, calls = counted(by_id["x2"])
        with pytest.raises(ConvergenceError, match=f"at n={1 << 10}"):
            refine_to_tolerance(fn, UNIT, 1e-15, CertTheorem.QUASI_Q1, check_class=False)
        assert calls == {"f": 0, "d2": (1 << 10) + 1}


class TestAgainstOracle:
    def test_catalog_windows_enclose_oracle_value(self, catalog):
        for fn in catalog:
            theorem = cli_theorem(fn, fn.window)
            if theorem is None:
                continue
            truth = integrate(fn.f, fn.window, 1e-11)
            for n in (1, 4, 16):
                res = integrate_certified(fn, fn.window, n, theorem, check_class=False)
                slack = res.error_radius + truth.est_error + 1e-12 * (1 + abs(truth.value))
                assert abs(res.estimate - truth.value) <= slack, (fn.id, n)
