"""Acceptance gate: each criterion at its stated tolerance, one line per run.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.
"""

import subprocess
import sys
import time

import pytest

from hhbounds.bounds_convex import (
    bound_convex_holder,
    bound_convex_powermean,
    bound_convex_q1,
    constant_comparison,
)
from hhbounds.certifier import CertTheorem, integrate_certified, refine_to_tolerance
from hhbounds.core import ConjugatePair, HypothesisError, Interval
from hhbounds.identity import identity_lhs, kernel_weighted_d2_integral
from hhbounds.kernel import lp_norm_integral, peak_kernel, weighted_moment
from hhbounds.means import (
    chain_check,
    check_prop_identric,
    check_prop_monomial_pm,
    check_prop_monomial_q1,
    check_prop_monomial_quasi,
    check_prop_reciprocal_pm,
    check_prop_reciprocal_quasi,
    lp_monotone_nondecreasing,
)
from hhbounds.oracle import (
    check_convex_abs_d2,
    check_quasiconvex_abs_d2,
    integrate,
    midpoint_gap,
)
from hhbounds.rng import SplitMix64
from hhbounds.suites import bound_suite, identity_suite

UNIT = Interval(0.0, 1.0)


def _report(num: int, name: str) -> None:
    print(f"acceptance {num} ({name}): PASS")


def test_criterion_1_identity_residuals(by_id):
    start = time.monotonic()
    lines = identity_suite(200, seed=11)
    elapsed = time.monotonic() - start
    assert len(lines) >= 2000
    worst = max(abs(line.slack) for line in lines)
    assert worst < 1e-9, f"worst residual {worst}"
    assert elapsed < 10.0, f"identity sweep took {elapsed:.1f}s"

    # regression for the doubled leading coefficient: residual exactly 1/12
    fn = by_id["x2"]
    rhs_half = UNIT.width ** 2 / 2.0 * kernel_weighted_d2_integral(fn, UNIT, 1e-12)
    residual = abs(identity_lhs(fn, UNIT, 1e-12) - rhs_half)
    assert residual == pytest.approx(1.0 / 12.0, abs=1e-10)
    _report(1, "identity residuals and /2-coefficient regression")


def test_criterion_2_kernel_constants():
    assert lp_norm_integral(1.0) == 1.0 / 12.0
    assert weighted_moment() == 1.0 / 24.0
    for p in (1.0, 1.5, 2.0, 3.0, 10.0):
        quad = (integrate(lambda t: peak_kernel(t) ** p, Interval(0.0, 0.5), 5e-12).value
                + integrate(lambda t: peak_kernel(t) ** p, Interval(0.5, 1.0), 5e-12).value)
        assert abs(lp_norm_integral(p) - quad) <= 1e-10, p
    _report(2, "kernel moments vs quadrature")


def test_criterion_3_sharpness_for_linear_second_derivative(by_id):
    rng = SplitMix64(33)
    for fid in ("x2", "x3"):
        fn = by_id[fid]
        for _ in range(50):
            iv = rng.subinterval(fn.window)
            bound = bound_convex_q1(iv, abs(fn.d2(iv.a)), abs(fn.d2(iv.b)))
            gap = midpoint_gap(fn, iv, tol=1e-12)
            assert bound == pytest.approx(gap, abs=1e-10), (fid, iv)
    _report(3, "endpoint-mean bound is sharp for x^2 and x^3")


def test_criterion_4_validity_sweep():
    lines = bound_suite("convex", 200, seed=44) + bound_suite("quasiconvex", 200, seed=44)
    failures = [line for line in lines if not line.passed]
    assert not failures, failures[:3]
    per_theorem: dict[str, int] = {}
    for line in lines:
        per_theorem[line.theorem] = per_theorem.get(line.theorem, 0) + 1
    expected = {"convex_q1", "convex_holder", "convex_pm", "baseline_q1",
                "baseline_pm", "quasi_q1", "quasi_monotone", "quasi_holder",
                "quasi_pm"}
    assert expected <= set(per_theorem)
    for theorem in expected:
        assert per_theorem[theorem] >= 200, (theorem, per_theorem[theorem])
    _report(4, "slack >= -1e-9 across 6 theorems + corollary + 2 baselines")


def test_criterion_5_constant_remarks():
    for i in range(100):
        p = 1.01 + (50.0 - 1.01) * i / 99.0
        lhs, rhs, better = constant_comparison(p)
        assert better and lhs < rhs, p
    rng = SplitMix64(55)
    for _ in range(1000):
        d2a = rng.uniform(0.0, 20.0)
        d2b = rng.uniform(0.0, 20.0)
        q = 1.0 + rng.uniform(1e-6, 9.0)
        pm = bound_convex_powermean(UNIT, d2a, d2b, q)
        holder = bound_convex_holder(UNIT, d2a, d2b, ConjugatePair.from_q(q))
        assert pm <= holder + 1e-12
    _report(5, "1/24 < Hoelder constant; power-mean bound dominates")


def test_criterion_6_mean_chain_and_lp_monotonicity():
    rng = SplitMix64(66)
    for _ in range(1000):
        a = rng.uniform(0.05, 20.0)
        b = a + rng.uniform(1e-4, 20.0)
        assert chain_check(a, b, tol=1e-12), (a, b)
    for _ in range(100):
        a = rng.uniform(0.1, 10.0)
        b = a + rng.uniform(0.01, 10.0)
        assert lp_monotone_nondecreasing(a, b), (a, b)
    _report(6, "H<=G<=L<=I<=A and L_p nondecreasing")


def test_criterion_7_propositions():
    # corrected monomial constant: equality at (1, 2, n=3) ...
    report = check_prop_monomial_q1(1.0, 2.0, 3)
    assert abs(report.slack) <= 1e-12
    # ... while the uncorrected printed constant fails there
    assert report.extras["literal_bound"] == pytest.approx(0.1875, abs=1e-15)
    assert report.true_gap == pytest.approx(0.375, abs=1e-15)
    assert report.extras["literal_bound"] < report.true_gap
    assert not report.extras["literal_valid"]

    rng = SplitMix64(77)
    for _ in range(200):
        a = rng.uniform(0.1, 8.0)
        b = a + rng.uniform(0.05, 2.0)
        n = rng.choice((-4, -3, -2, 3, 4, 5, 6))
        q = rng.uniform(1.05, 4.0)
        q_quasi = rng.uniform(1.0, 4.0)
        pair = ConjugatePair.from_q(q)
        assert check_prop_identric(a, b, pair).valid, (a, b, q)
        assert check_prop_monomial_pm(a, b, n, q).valid, (a, b, n, q)
        assert check_prop_reciprocal_pm(a, b, q).valid, (a, b, q)
        assert check_prop_reciprocal_quasi(a, b, q_quasi).valid, (a, b, q_quasi)
        assert check_prop_monomial_quasi(a, b, n, pair).valid, (a, b, n, q)
    _report(7, "corrected monomial equality + 200 instances per inequality")


def test_criterion_8_certifier(catalog, by_id):
    # enclosure against the quadrature oracle on every classified function
    for fn in catalog:
        if check_convex_abs_d2(fn, fn.window):
            theorem = CertTheorem.CONVEX_Q1
        elif check_quasiconvex_abs_d2(fn, fn.window):
            theorem = CertTheorem.QUASI_Q1
        else:
            with pytest.raises(HypothesisError):
                integrate_certified(fn, fn.window, 4, CertTheorem.CONVEX_Q1)
            continue
        truth = integrate(fn.f, fn.window, 1e-11)
        for n in (1, 2, 4, 8, 16, 64):
            res = integrate_certified(fn, fn.window, n, theorem, check_class=False)
            slack = res.error_radius + truth.est_error + 1e-12 * (1.0 + abs(truth.value))
            assert abs(res.estimate - truth.value) <= slack, (fn.id, n)

    # quadratic radius decay once the trapezoid sum of |f''| has settled
    decay_cases = [("x2", UNIT), ("x4", UNIT), ("inv_x", Interval(1.0, 2.0)),
                   ("exp", Interval(-1.0, 1.0))]
    for fid, iv in decay_cases:
        fn = by_id[fid]
        radii = {n: integrate_certified(fn, iv, n, check_class=False).error_radius
                 for n in (8, 16, 32, 64)}
        for n in (8, 16, 32):
            ratio = radii[n] / radii[2 * n]
            assert 3.9 <= ratio <= 4.1, (fid, n, ratio)

    res = refine_to_tolerance(by_id["x2"], UNIT, 1e-6)
    assert res.error_radius <= 1e-6
    assert abs(res.estimate - 1.0 / 3.0) <= 1e-6
    _report(8, "enclosure, quadratic decay, refinement to tolerance")


def test_criterion_9_cli_determinism_and_runtime():
    cmd = [sys.executable, "-m", "hhbounds", "verify", "--suite", "all",
           "--seed", "7", "--cases", "100"]
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    elapsed = time.monotonic() - start
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\n") > 1000
    assert elapsed < 60.0, f"two verify-all runs took {elapsed:.1f}s"
    _report(9, "byte-identical verify --suite all under the time budget")
