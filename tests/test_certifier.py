import dataclasses
import hashlib
import math
import re
import sys
from fractions import Fraction
from itertools import chain

import pytest

from hhbounds import certifier, core, oracle
from hhbounds.certifier import (
    CHUNK,
    MAX_SUBINTERVALS,
    CertTheorem,
    certify,
    integrate_certified,
    refine_to_tolerance,
)
from hhbounds.core import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    HypothesisError,
    Interval,
)
from hhbounds.oracle import check_convex_abs_d2, check_quasiconvex_abs_d2, integrate

UNIT = Interval(0.0, 1.0)
LN2 = 0.6931471805599453


def paper_rule(fn, iv):
    """The paper's rule whose class the oracle's sampler finds for fn on iv:
    CONVEX_Q1 when |f''| samples convex, else QUASI_Q1 when it samples
    quasi-convex, else None.  This is not the rule ``certify`` (and so `hh
    certify`) picks: it tries CORRECTED first, which certifies every
    benchmark ladder rung."""
    if check_convex_abs_d2(fn, iv):
        return CertTheorem.CONVEX_Q1
    if check_quasiconvex_abs_d2(fn, iv):
        return CertTheorem.QUASI_Q1
    return None


#: the rules that read f'', whose walk tests below read ``fn.d2``;
#: ``TestCorrected`` has their counterparts for the rule that reads f''''
F2_RULES = [CertTheorem.CONVEX_Q1, CertTheorem.QUASI_Q1, CertTheorem.FEJER]


def counted(fn, *keys):
    """fn with f and f'' (or the evaluators named) replaced by evaluators
    that count their calls."""
    calls = dict.fromkeys(keys or ("f", "d2"), 0)

    def count(key, ev):
        def wrapped(x):
            calls[key] += 1
            return ev(x)
        return wrapped

    return dataclasses.replace(fn, **{key: count(key, getattr(fn, key)) for key in calls}), calls


@pytest.fixture
def class_checks_pass(monkeypatch):
    """Class checks that pass without evaluating f'', so counts see the search
    alone: the per-pair sampler is replaced, and the fine-grid read returns
    a zero f'', which every fine-grid check passes."""
    monkeypatch.setattr(oracle, "check_convex_abs_d2", lambda fn, iv: True)
    monkeypatch.setattr(oracle, "fine_grid_sample",
                        lambda g, iv: [0.0] * (2 * oracle.CLASS_CHECK_GRID - 1))


class TestSingleResolution:
    def test_square_single_panel_hits_boundary(self, by_id):
        res = integrate_certified(by_id["x2"], UNIT, 1)
        assert res.estimate == 0.25
        assert res.truncation_radius == pytest.approx(1.0 / 12.0, abs=1e-16)
        assert res.rounding_radius <= 1e-15
        assert res.error_radius >= res.truncation_radius + res.rounding_radius
        # true value 1/3 lies exactly on the boundary of the certificate
        assert abs(1.0 / 3.0 - res.estimate) <= res.error_radius + 1e-15

    def test_square_two_panels(self, by_id):
        res = integrate_certified(by_id["x2"], UNIT, 2)
        assert res.estimate == pytest.approx(0.3125, abs=1e-15)
        assert res.truncation_radius == pytest.approx(1.0 / 48.0, abs=1e-16)
        assert res.rounding_radius <= 1e-15
        assert res.error_radius >= res.truncation_radius + res.rounding_radius
        assert abs(1.0 / 3.0 - res.estimate) == pytest.approx(1.0 / 48.0, abs=1e-15)

    def test_affine_is_exact_with_zero_radius(self, by_id):
        res = integrate_certified(by_id["affine"], Interval(0.0, 2.0), 5)
        assert res.truncation_radius == 0.0
        assert res.rounding_radius <= 1e-14  # 48 u of the estimate 8
        assert res.error_radius >= res.truncation_radius + res.rounding_radius
        assert res.estimate == pytest.approx(8.0, abs=1e-14)

    def test_rejects_nonpositive_subinterval_count(self, by_id):
        with pytest.raises(DomainError):
            integrate_certified(by_id["x2"], UNIT, 0)

    def test_rejects_interval_outside_domain(self, by_id):
        with pytest.raises(DomainError):
            integrate_certified(by_id["inv_x"], Interval(0.0, 1.0), 4)

    def test_refuses_function_without_the_class(self, by_id):
        # on [0, 6], f'' = -sin is neither convex nor concave, and |f''| has
        # two humps
        for theorem in CertTheorem:
            with pytest.raises(HypothesisError):
                integrate_certified(by_id["sin"], Interval(0.0, 6.0), 4, theorem)

    def test_class_check_samples_the_64_point_grid(self):
        # a narrow bump up in f'' at 1/126 and one down at 125/126, the
        # midpoints of the first and the last pair of the 64-point grid and
        # far from every midpoint of a 33-point grid: the first refutes f''
        # and |f''| as convex, the second f'' as concave; f and f' are never
        # evaluated before the refusal
        def bump(x, at):
            return max(0.0, 1.0 - abs(x - at) / 1e-3)

        def d2(x):
            return 1.0 + bump(x, 1.0 / 126.0) - bump(x, 125.0 / 126.0)

        fn = core.TestFunction("bump", lambda x: 0.0, lambda x: 0.0, d2, UNIT)
        for theorem in CertTheorem:
            with pytest.raises(HypothesisError):
                integrate_certified(fn, UNIT, 4, theorem)

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
        assert res.truncation_radius == 0.0
        assert res.rounding_radius <= 1e-14  # 48 u of the estimate 8
        assert res.error_radius >= res.truncation_radius + res.rounding_radius

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
        # before any evaluation, by both entry points under either theorem
        fn, calls = counted(by_id["inv_x"])
        for theorem in CertTheorem:
            with pytest.raises(DomainError, match="outside the domain"):
                refine_to_tolerance(fn, Interval(0.0, 1.0), 1e-6, theorem)
            with pytest.raises(DomainError, match="outside the domain"):
                integrate_certified(fn, Interval(0.0, 1.0), 4, theorem)
        assert calls == {"f": 0, "d2": 0}


class TestNestedSearch:
    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    def test_equals_single_pass_at_the_fewest_doublings(self, catalog, tol):
        checked = 0
        for fn in catalog:
            theorem = paper_rule(fn, fn.window)
            if theorem is None:
                continue
            res = refine_to_tolerance(fn, fn.window, tol, theorem)
            n = res.subintervals
            assert res == integrate_certified(fn, fn.window, n, theorem)
            assert res.error_radius <= tol
            if n > 1:
                coarser = integrate_certified(fn, fn.window, n // 2, theorem)
                assert coarser.error_radius > tol, (fn.id, n)
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("fid, a, b, tol, theorem", [
        ("exp", -1.0, 1.0, 1e-8, CertTheorem.CONVEX_Q1),
        ("x4", -1.5, 1.5, 1e-6, CertTheorem.CONVEX_Q1),
        ("inv_x", 1.0, 2.0, 1e-8, CertTheorem.QUASI_Q1),
    ])
    @pytest.mark.usefixtures("class_checks_pass")
    def test_f_once_per_midpoint_and_d2_once_per_cut(self, by_id, fid, a, b, tol, theorem):
        fn, calls = counted(by_id[fid])
        res = refine_to_tolerance(fn, Interval(a, b), tol, theorem)
        assert res.subintervals > 1
        assert calls == {"f": res.subintervals, "d2": res.subintervals + 1}

    @pytest.mark.parametrize("fid, a, b, tol", [
        ("x4", -1.5, 1.5, 1e-12),
        ("x2", 0.0, 1.0, 1e-15),
    ])
    @pytest.mark.usefixtures("class_checks_pass")
    def test_convex_floor_fails_fast_without_evaluating_f(self, by_id, fid, a, b, tol):
        fn, calls = counted(by_id[fid])
        with pytest.raises(ConvergenceError, match="at least"):
            refine_to_tolerance(fn, Interval(a, b), tol)
        assert calls["f"] == 0
        assert calls["d2"] < 100

    @pytest.mark.parametrize("tol, n", [(1e-15, 4096), (1e-20, 1)])
    @pytest.mark.usefixtures("class_checks_pass")
    def test_quasi_floor_fails_fast_without_evaluating_f(self, by_id, tol, n):
        # every panel's larger |f''| end is at least the mean of its ends, so
        # the trapezoid sum of |f''| read so far bounds every finer weight
        fn, calls = counted(by_id["sin"])
        with pytest.raises(ConvergenceError,
                           match=rf"at least \S+ \(floor from the f'' read up to n={n}\)"):
            refine_to_tolerance(fn, Interval(2.0, 4.5), tol, CertTheorem.QUASI_Q1)
        assert calls == {"f": 0, "d2": n + 1}

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the quasi_q1 floor, C (span/2^20)^3 S over the sum S of the "
                              "|f''| read so far, nears this tolerance only close to n = 2^20 "
                              "(ROADMAP item 30)")
    def test_quasi_floor_refuses_a_near_miss_fast(self, by_id):
        # the radius at n = 2^20 is at least 1.63e-13, above 1e-13, but the
        # floor refuses only at n = 524,288, after 524,416 reads of f''
        fn, calls = counted(by_id["sin"])
        with pytest.raises(ConvergenceError):
            refine_to_tolerance(fn, Interval(2.0, 4.5), 1e-13, CertTheorem.QUASI_Q1)
        assert calls["d2"] <= 10_000


#: per rule, requests whose class holds, as (fid, a, b, tol, n)
RULE_REQUESTS = {
    CertTheorem.CONVEX_Q1: [("exp", -1.0, 1.0, 1e-8, 24), ("x4", -1.5, 1.5, 1e-6, 5)],
    CertTheorem.QUASI_Q1: [("sin", 2.0, 4.5, 1e-6, 24), ("x_5_2", 0.25, 4.0, 1e-8, 1)],
    CertTheorem.FEJER: [("exp", -1.0, 1.0, 1e-10, 24), ("x_5_2", 0.25, 4.0, 1e-10, 3)],
    CertTheorem.CORRECTED: [("exp", -1.0, 1.0, 1e-10, 24), ("x_5_2", 0.25, 4.0, 1e-12, 1)],
}

RULE_NAMES = "convex_q1, quasi_q1, fejer, corrected_fejer"


def bits(cert):
    """Every field of a certificate, floats by their hex form."""
    return (cert.estimate.hex(), cert.error_radius.hex(), cert.subintervals,
            cert.theorem_used, cert.truncation_radius.hex(), cert.rounding_radius.hex())


class TestRuleLookup:
    """Each entry point turns ``theorem`` into its ``CertTheorem`` member
    once: a rule's name runs that rule's arithmetic, and any other value is
    refused before any evaluation."""

    @pytest.mark.parametrize("theorem", list(CertTheorem))
    def test_a_name_gives_its_member_s_certificate(self, by_id, theorem):
        for fid, a, b, tol, n in RULE_REQUESTS[theorem]:
            fn, iv = by_id[fid], Interval(a, b)
            for certify, arg in ((refine_to_tolerance, tol), (integrate_certified, n)):
                member, name = (certify(fn, iv, arg, rule) for rule in (theorem, theorem.value))
                assert bits(name) == bits(member), (fid, certify.__name__)
                assert member.theorem_used is theorem
                assert name.theorem_used is theorem

    @pytest.mark.parametrize("certify, fid, a, b, arg, theorem", [
        # the end correction is in the estimate, and the quasi-convex weight
        # in the radius
        (refine_to_tolerance, "exp", -1.0, 1.0, 1e-10, "corrected_fejer"),
        (integrate_certified, "x_5_2", 0.25, 4.0, 1, "quasi_q1"),
    ])
    def test_a_name_encloses_the_exact_integral(self, by_id, certify, fid, a, b, arg, theorem):
        cert = certify(by_id[fid], Interval(a, b), arg, theorem)
        assert abs(cert.estimate - exact_integral(fid, a, b)) <= cert.error_radius
        assert cert.theorem_used is CertTheorem(theorem)

    def test_a_name_refuses_at_its_member_s_floor(self, by_id):
        fn, iv = by_id["exp"], Interval(-1.0, 1.0)
        refusals = []
        for theorem in (CertTheorem.CONVEX_Q1, "convex_q1"):
            counted_fn, calls = counted(fn, "f", "d2")
            with pytest.raises(ConvergenceError, match=r"read up to n=2\)") as info:
                refine_to_tolerance(counted_fn, iv, 1e-13, theorem)
            refusals.append((str(info.value), calls))
        # the same message after the same reads, and no f read
        assert refusals[0] == refusals[1]
        assert refusals[0][1]["f"] == 0

    @pytest.mark.parametrize("theorem", ["nope", "convex_pm", None])
    def test_any_other_theorem_is_refused_before_any_evaluation(self, by_id, theorem):
        fn, calls = counted(by_id["exp"], "f", "d1", "d2", "d4")
        iv = Interval(-1.0, 1.0)
        for certify, arg in ((refine_to_tolerance, 1e-8), (integrate_certified, 4)):
            with pytest.raises(DomainError) as info:
                certify(fn, iv, arg, theorem)
            assert str(info.value) == f"unknown certifier rule {theorem!r}; rules: {RULE_NAMES}"
        assert calls == {"f": 0, "d1": 0, "d2": 0, "d4": 0}
        # the members are the four rules, in that order
        assert ", ".join(member.value for member in CertTheorem) == RULE_NAMES


class TestAgainstOracle:
    def test_catalog_windows_enclose_oracle_value(self, catalog):
        for fn in catalog:
            theorem = paper_rule(fn, fn.window)
            if theorem is None:
                continue
            truth = integrate(fn.f, fn.window, 1e-11)
            for n in (1, 4, 16):
                res = integrate_certified(fn, fn.window, n, theorem)
                slack = res.error_radius + truth.est_error + 1e-12 * (1 + abs(truth.value))
                assert abs(res.estimate - truth.value) <= slack, (fn.id, n)


#: the benchmark's certify ladder, with the n each rung took before the
#: rounding part existed
LADDER = [
    ("x2", 0.0, 1.0, 1e-6, 512),
    ("exp", -1.0, 1.0, 1e-8, 8192),
    ("x3", 0.0, 2.0, 1e-8, 16384),
    ("x4", -1.5, 1.5, 1e-8, 32768),
    ("affine", 0.0, 2.0, 1e-12, 1),
    ("x_5_2", 0.25, 4.0, 1e-9, 131072),
    ("inv_x", 1.0, 2.0, 1e-10, 32768),
    ("x5", 0.5, 1.5, 1e-10, 131072),
    ("neg_ln", 0.5, 3.0, 1e-10, 131072),
    ("x_5_2", 1.0, 2.0, 1e-10, 65536),
    ("x2", 0.0, 1.0, 1e-12, 524288),
    ("inv_x", 1.0, 2.0, 1e-12, 262144),
    ("exp", -1.0, 1.0, 1e-11, 262144),
]


def exact_integral(fid, a, b):
    """The integral of a catalog function from its antiderivative, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    antiderivatives = {
        "x2": lambda x: x ** 3 / 3, "x3": lambda x: x ** 4 / 4,
        "x4": lambda x: x ** 5 / 5, "x5": lambda x: x ** 6 / 6,
        "affine": lambda x: 1.5 * x * x + x, "exp": mpmath.exp,
        "inv_x": mpmath.log, "neg_ln": lambda x: x - x * mpmath.log(x),
        "x_5_2": lambda x: x ** mpmath.mpf(3.5) / mpmath.mpf(3.5),
        "sin": lambda x: -mpmath.cos(x),
    }
    with mpmath.mp.workdps(50):
        big = antiderivatives[fid]
        return big(mpmath.mpf(b)) - big(mpmath.mpf(a))


def recorded(fn, *keys):
    """fn with f and f'' (or the evaluators named) replaced by evaluators
    that record their arguments."""
    seen = {key: [] for key in keys or ("f", "d2")}

    def record(key, ev):
        def wrapped(x):
            seen[key].append(x)
            return ev(x)
        return wrapped

    return dataclasses.replace(fn, **{key: record(key, getattr(fn, key)) for key in seen}), seen


class TestFloatingPoint:
    @pytest.mark.parametrize("fid, a, b, tol, n", LADDER)
    def test_every_ladder_rung_encloses_the_exact_integral(self, by_id, fid, a, b, tol, n):
        fn, iv = by_id[fid], Interval(a, b)
        res = refine_to_tolerance(fn, iv, tol, paper_rule(fn, iv))
        assert res.subintervals == n
        assert res.error_radius <= tol
        assert abs(res.estimate - exact_integral(fid, a, b)) <= res.error_radius
        assert res.error_radius >= res.truncation_radius + res.rounding_radius

    @pytest.mark.parametrize("n", [5, 3 << 4])
    @pytest.mark.parametrize("theorem", F2_RULES)
    @pytest.mark.usefixtures("class_checks_pass")
    def test_walk_from_the_odd_part_reads_every_cut_once(self, by_id, n, theorem):
        fn, seen = recorded(by_id["inv_x"])
        iv = Interval(1.0, 2.0)
        res = integrate_certified(fn, iv, n, theorem)
        # FEJER reads the midpoints as the odd cuts of the 2n-grid
        grid = 2 * n if theorem is CertTheorem.FEJER else n
        cuts = [iv.a + iv.width * i / grid for i in range(grid)] + [iv.b]
        mids = [iv.a + iv.width * k / (2 * n) for k in range(1, 2 * n, 2)]
        assert sorted(seen["d2"]) == cuts
        assert seen["f"] == mids
        # the same certificate, summed at once over the whole grid
        h = iv.width / n
        midpoint_sum = h * math.fsum(map(fn.f, mids))
        if theorem is CertTheorem.FEJER:
            g = [fn.d2(x) for x in cuts]
            trapezoid = math.fsum([0.5 * g[0], 0.5 * g[-1]] + g[2:-1:2])
            midpoint = math.fsum(g[1::2])
            assert res.truncation_radius == pytest.approx(
                h ** 3 / 48 * abs(trapezoid - midpoint), rel=1e-12)
            midpoint_sum += h ** 3 / 48 * (trapezoid + midpoint)
        else:
            g = [abs(fn.d2(x)) for x in cuts]
            if theorem is CertTheorem.CONVEX_Q1:
                weight = math.fsum([0.5 * g[0], 0.5 * g[-1]] + g[1:-1])
            else:
                weight = math.fsum(map(max, g, g[1:]))
            assert res.truncation_radius == pytest.approx(h ** 3 / 24 * weight, rel=1e-14)
        assert res.estimate == pytest.approx(midpoint_sum, rel=1e-15)
        assert abs(res.estimate - math.log(2.0)) <= res.error_radius

    @pytest.mark.parametrize("theorem", F2_RULES)
    def test_level_above_chunk_weight_matches_one_fsum(self, by_id, theorem):
        fn, iv = by_id["exp"], Interval(-1.0, 1.0)
        walk = certifier._Walk(fn, iv, theorem, 1)
        while walk.n <= 2 * CHUNK:
            walk.double()
        n = walk.n
        # every rule keeps the chunk sums of f'' and |f''| level by level;
        # FEJER's last level is the odd cuts of the 2n-grid, its midpoints
        grid = 2 * n if theorem is CertTheorem.FEJER else n
        g = [fn.d2(iv.a + iv.width * i / grid) for i in range(grid)] + [fn.d2(iv.b)]
        assert walk.ends == (g[0], g[-1])
        pairs = [(math.fsum(walk.sums), g[1:-1]),
                 (math.fsum(walk.sizes), [abs(y) for y in g[1:-1]])]
        # every rule keeps the ends' least |f''|, the least read here (see
        # test_only_quasi_q1_keeps_the_least_magnitude_it_read for one inside)
        assert walk.least == min(map(abs, g))
        if theorem is CertTheorem.FEJER:
            # f'' = exp > 0: the trapezoid sum on the n-grid, and the
            # midpoint sum on the odd cuts of the 2n-grid
            halves = [0.5 * end for end in walk.ends]
            pairs += [(math.fsum(chain(halves, walk.sums[:walk.top])),
                       [0.5 * g[0], 0.5 * g[-1]] + g[2:-1:2]),
                      (math.fsum(walk.sums[walk.top:]), g[1::2])]
        elif theorem is CertTheorem.CONVEX_Q1:
            # the last level is the last doubling's odd cuts
            pairs.append((math.fsum(walk.sizes[walk.top:]), g[1::2]))
        for computed, terms in pairs:
            reference = math.fsum(terms)
            assert abs(computed - reference) <= 2.0 ** -53 * reference

    @pytest.mark.parametrize("theorem", list(CertTheorem))
    def test_only_quasi_q1_keeps_the_least_magnitude_it_read(self, by_id, theorem):
        # f'' of x^4 is 12x^2: 27 at both ends, 0 at the cut x = 0 that the
        # first doubling reads (the first level's midpoint under FEJER);
        # f'''' is 24 everywhere.  QUASI_Q1's weight takes the least
        # magnitude read; every other rule keeps the ends' alone, and
        # neither its truncation part, its floor nor its certificate reads it
        key = theorem.hypothesis.derivative
        fn, seen = recorded(by_id["x4"], key)
        walk = certifier._Walk(fn, Interval(-1.5, 1.5), theorem, 1)
        for _ in range(3):
            walk.double()
        least = min(abs(getattr(by_id["x4"], key)(x)) for x in seen[key])
        if theorem is CertTheorem.QUASI_Q1:
            assert walk.least == least == 0.0
            return
        assert walk.least == min(map(abs, walk.ends))
        assert walk.least == (24.0 if theorem is CertTheorem.CORRECTED else 27.0)
        outputs = (walk.truncation(), walk.floor(), walk.certificate(walk.truncation()))
        walk.least = math.nan
        assert (walk.truncation(), walk.floor(), walk.certificate(walk.truncation())) == outputs

    @pytest.mark.usefixtures("class_checks_pass")
    def test_rounding_part_is_checked_before_the_level_is_taken(self, by_id):
        # at n = 4 the truncation part fits and the rounding part does not:
        # the search doubles once more and evaluates f on both levels
        at4 = integrate_certified(by_id["x2"], UNIT, 4)
        tol = at4.truncation_radius + 0.5 * at4.rounding_radius
        fn, calls = counted(by_id["x2"])
        res = refine_to_tolerance(fn, UNIT, tol)
        assert res.subintervals == 8
        assert calls == {"f": 4 + 8, "d2": 9}

    @pytest.mark.usefixtures("class_checks_pass")
    def test_below_the_rounding_floor_fails_after_one_f_pass(self, by_id):
        fn, calls = counted(by_id["affine"])
        with pytest.raises(ConvergenceError, match="rounding part"):
            refine_to_tolerance(fn, Interval(0.0, 2.0), 1e-16)
        assert calls == {"f": 1, "d2": 2}


def _function(f=lambda x: x * x, d2=lambda x: 2.0):
    return core.TestFunction("custom", f, lambda x: 0.0, d2, UNIT)


class TestNonFinite:
    @pytest.mark.parametrize("theorem", F2_RULES)
    @pytest.mark.usefixtures("class_checks_pass")
    def test_nan_second_derivative_fails_at_the_first_level(self, theorem):
        fn, calls = counted(_function(d2=lambda x: math.nan))
        with pytest.raises(EvaluationError, match="f''"):
            refine_to_tolerance(fn, UNIT, 1e-6, theorem)
        assert calls == {"f": 0, "d2": 2}
        with pytest.raises(EvaluationError):
            integrate_certified(fn, UNIT, 64, theorem)

    @pytest.mark.parametrize("f", [
        lambda x: math.nan,
        lambda x: math.inf if x < 0.5 else -math.inf,  # fsum raises on inf - inf
    ])
    @pytest.mark.usefixtures("class_checks_pass")
    def test_non_finite_f_gives_no_certificate(self, f):
        fn = _function(f=f)
        with pytest.raises(EvaluationError, match="f is not finite"):
            refine_to_tolerance(fn, UNIT, 1e-6)
        with pytest.raises(EvaluationError, match="f is not finite"):
            integrate_certified(fn, UNIT, 4)

    @pytest.mark.parametrize("theorem", list(CertTheorem))
    def test_a_sum_past_the_float_range_raises_evaluation_error(self, by_id, theorem):
        # exp over [700, 709]: every value read is finite, and their sum
        # overflows inside fsum
        fn, iv = by_id["exp"], Interval(700.0, 709.0)
        with pytest.raises(EvaluationError, match="is not finite on the grid of n="):
            refine_to_tolerance(fn, iv, 1e300, theorem)
        with pytest.raises(EvaluationError, match="is not finite on the grid of n="):
            integrate_certified(fn, iv, 64, theorem)


#: the certify ladder under FEJER with the n each rung takes, and three
#: requests the paper's rules cannot certify
FEJER_LADDER = [
    ("x2", 0.0, 1.0, 1e-6, 1),
    ("exp", -1.0, 1.0, 1e-8, 64),
    ("x3", 0.0, 2.0, 1e-8, 1),
    ("x4", -1.5, 1.5, 1e-8, 256),
    ("affine", 0.0, 2.0, 1e-12, 1),
    ("x_5_2", 0.25, 4.0, 1e-9, 256),
    ("inv_x", 1.0, 2.0, 1e-10, 128),
    ("x5", 0.5, 1.5, 1e-10, 256),
    ("neg_ln", 0.5, 3.0, 1e-10, 512),
    ("x_5_2", 1.0, 2.0, 1e-10, 64),
    ("x2", 0.0, 1.0, 1e-12, 1),
    ("inv_x", 1.0, 2.0, 1e-12, 512),
    ("exp", -1.0, 1.0, 1e-11, 512),
    ("x4", -1.5, 1.5, 1e-12, 2048),
    ("sin", 0.0, 3.0, 1e-10, 256),
    ("x_5_2", 1.0, 2.0, 1e-14, 1024),
]


class TestFejer:
    @pytest.mark.parametrize("fid, a, b, tol, n", FEJER_LADDER)
    def test_every_rung_encloses_the_exact_integral(self, by_id, fid, a, b, tol, n):
        iv = Interval(a, b)
        res = refine_to_tolerance(by_id[fid], iv, tol, CertTheorem.FEJER)
        assert res.theorem_used is CertTheorem.FEJER
        assert res.subintervals == n
        assert res.error_radius <= tol
        assert res.error_radius >= res.truncation_radius + res.rounding_radius
        assert abs(res.estimate - exact_integral(fid, a, b)) <= res.error_radius

    def test_radius_scaled_by_0_79_misses_some_rung(self, by_id):
        misses = []
        for fid, a, b, tol, _ in FEJER_LADDER:
            res = refine_to_tolerance(by_id[fid], Interval(a, b), tol, CertTheorem.FEJER)
            miss = abs(res.estimate - exact_integral(fid, a, b))
            misses.append(miss > 0.79 * res.error_radius)
        assert any(misses)

    @pytest.mark.parametrize("fid, b", [("x2", 1.0), ("x3", 2.0)])
    def test_linear_second_derivative_takes_one_panel(self, by_id, fid, b):
        # T = M for linear f'': only the bound on the sums' rounding is left
        # in the truncation part
        res = refine_to_tolerance(by_id[fid], Interval(0.0, b), 1e-13, CertTheorem.FEJER)
        assert res.subintervals == 1
        assert 0.0 < res.truncation_radius <= 1e-14
        assert abs(res.estimate - exact_integral(fid, 0.0, b)) <= res.error_radius

    @pytest.mark.parametrize("fid, a, b, tol", [
        ("exp", -1.0, 1.0, 1e-8),
        ("x_5_2", 0.25, 4.0, 1e-9),
        ("inv_x", 1.0, 2.0, 1e-12),
    ])
    @pytest.mark.usefixtures("class_checks_pass")
    def test_reads_f2_at_2n_plus_1_cuts_and_f_at_n_midpoints(self, by_id, fid, a, b, tol):
        fn, calls = counted(by_id[fid])
        res = refine_to_tolerance(fn, Interval(a, b), tol, CertTheorem.FEJER)
        n = res.subintervals
        assert n > 1
        assert calls == {"f": n, "d2": 2 * n + 1}
        for n in (5, 48, 64):
            fn, calls = counted(by_id[fid])
            integrate_certified(fn, Interval(a, b), n, CertTheorem.FEJER)
            assert calls == {"f": n, "d2": 2 * n + 1}

    @pytest.mark.parametrize("fid, a, b, tol", [
        (fid, a, b, tol) for fid, a, b, tol, n in FEJER_LADDER if n > 1])
    def test_equals_single_pass_at_the_fewest_doublings(self, by_id, fid, a, b, tol):
        fn, iv = by_id[fid], Interval(a, b)
        res = refine_to_tolerance(fn, iv, tol, CertTheorem.FEJER)
        n = res.subintervals
        assert res == integrate_certified(fn, iv, n, CertTheorem.FEJER)
        assert integrate_certified(fn, iv, n // 2, CertTheorem.FEJER).error_radius > tol

    def test_concave_second_derivative_passes_the_class_check(self, by_id):
        # f'' = 3.75 sqrt(x) is concave; -sin is convex on [0, pi]
        assert oracle.CONVEX_OR_CONCAVE_F2.check(by_id["x_5_2"], Interval(0.25, 4.0))
        assert oracle.CONVEX_OR_CONCAVE_F2.check(by_id["sin"], Interval(0.0, 3.0))
        with pytest.raises(HypothesisError, match="f'' of 'sin' is not convex or concave"):
            refine_to_tolerance(by_id["sin"], Interval(0.0, 6.0), 1e-6, CertTheorem.FEJER)

    def test_nearly_linear_concave_second_derivative_takes_fejer(self):
        # f'' = x - 1e-7 x^2 bends by less than the class tolerance, so the
        # fine grid leaves both signs open; the slope change says concave
        fn = core.polynomial([0.0, 0.0, 0.0, 1.0 / 6.0, -1e-7 / 12.0], id="near_linear",
                             window=UNIT)
        res = refine_to_tolerance(fn, UNIT, 1e-9, CertTheorem.FEJER)
        exact = 1.0 / 24.0 - 1e-7 / 60.0
        assert res.theorem_used is CertTheorem.FEJER
        assert abs(res.estimate - exact) <= res.error_radius <= 1e-9

    def test_truncation_part_past_the_float_range_doubles_on(self, by_id):
        # at n = 1 the truncation part of exp over [0, 700] is above the
        # float range: it counts as +inf, and a finer grid meets the tolerance
        res = refine_to_tolerance(by_id["exp"], Interval(0.0, 700.0), 1e300,
                                  CertTheorem.FEJER)
        assert res.subintervals > 1
        assert abs(res.estimate - math.expm1(700.0)) <= res.error_radius <= 1e300

    def test_one_sided_bump_refutes_both_signs(self):
        # f'' = 1 + a narrow tent at 1/126, a midpoint of the 64-point grid's
        # first pair: the tent refutes convex f'', and its neighbours on the
        # 127-point grid refute concave f'', so neither pair sample runs
        def d2(x):
            return 1.0 + max(0.0, 1.0 - abs(x - 1.0 / 126.0) / 1e-3)

        fn = core.TestFunction("bump", lambda x: 0.0, lambda x: 0.0, d2, UNIT)
        assert oracle.convexity_sign(oracle.fine_grid_sample(d2, UNIT)) == 0
        assert not oracle.CONVEX_OR_CONCAVE_F2.check(fn, UNIT)
        with pytest.raises(HypothesisError, match="f'' of 'bump' is not convex or concave"):
            refine_to_tolerance(fn, UNIT, 1e-9, CertTheorem.FEJER)

    @pytest.mark.usefixtures("class_checks_pass")
    def test_unreachable_tolerance_searches_to_the_cap(self, by_id, monkeypatch):
        monkeypatch.setattr(certifier, "MAX_SUBINTERVALS", 1 << 6)
        fn, calls = counted(by_id["exp"])
        with pytest.raises(ConvergenceError, match=f"at n={1 << 6}"):
            refine_to_tolerance(fn, Interval(-1.0, 1.0), 1e-15, CertTheorem.FEJER)
        assert calls == {"f": 0, "d2": (2 << 6) + 1}


#: |f''| = |sin| falls to 0 at pi and rises after it: quasi-convex, not convex
QUASI_IV = Interval(2.0, 4.5)


class TestQuasi:
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_interior_minimum_encloses_the_exact_integral(self, by_id, tol):
        fn = by_id["sin"]
        assert paper_rule(fn, QUASI_IV) is CertTheorem.QUASI_Q1
        res = refine_to_tolerance(fn, QUASI_IV, tol, CertTheorem.QUASI_Q1)
        assert res.theorem_used is CertTheorem.QUASI_Q1
        assert res.error_radius <= tol
        assert res.error_radius >= res.truncation_radius + res.rounding_radius
        assert abs(res.estimate - exact_integral("sin", 2.0, 4.5)) <= res.error_radius

    @pytest.mark.parametrize("n", [5, 48, 1000])
    def test_truncation_is_the_sum_of_the_larger_ends(self, by_id, n):
        # the sum over all cuts less the least equals the sum of per-panel maxima
        fn, iv = by_id["sin"], QUASI_IV
        res = integrate_certified(fn, iv, n, CertTheorem.QUASI_Q1)
        g = [abs(fn.d2(iv.a + iv.width * i / n)) for i in range(n)] + [abs(fn.d2(iv.b))]
        h = iv.width / n
        weight = math.fsum(map(max, g, g[1:]))
        assert res.truncation_radius == pytest.approx(h ** 3 / 24 * weight, rel=1e-14)
        assert 0 < g.index(min(g)) < n


#: the `hh certify` requests of test_cli.py's ``CERTIFY_BYTES`` that
#: certify, with the rule the ladder reports and its n: the benchmark's 13
#: rungs, four that reach the corrected rule's regimes, and the two that
#: fall through it
CERTIFIED = [
    ("x2", 0.0, 1.0, 1e-6, CertTheorem.CORRECTED, 1),
    ("exp", -1.0, 1.0, 1e-8, CertTheorem.CORRECTED, 16),
    ("x3", 0.0, 2.0, 1e-8, CertTheorem.CORRECTED, 1),
    ("x4", -1.5, 1.5, 1e-8, CertTheorem.CORRECTED, 1),
    ("affine", 0.0, 2.0, 1e-12, CertTheorem.CORRECTED, 1),
    ("x_5_2", 0.25, 4.0, 1e-9, CertTheorem.CORRECTED, 64),
    ("inv_x", 1.0, 2.0, 1e-10, CertTheorem.CORRECTED, 32),
    ("x5", 0.5, 1.5, 1e-10, CertTheorem.CORRECTED, 1),
    ("neg_ln", 0.5, 3.0, 1e-10, CertTheorem.CORRECTED, 128),
    ("x_5_2", 1.0, 2.0, 1e-10, CertTheorem.CORRECTED, 16),
    ("x2", 0.0, 1.0, 1e-12, CertTheorem.CORRECTED, 1),
    ("inv_x", 1.0, 2.0, 1e-12, CertTheorem.CORRECTED, 64),
    ("exp", -1.0, 1.0, 1e-11, CertTheorem.CORRECTED, 64),
    ("x4", -1.5, 1.5, 1e-12, CertTheorem.CORRECTED, 1),
    ("sin", 0.0, 3.0, 1e-10, CertTheorem.CORRECTED, 64),
    ("x_5_2", 1.0, 2.0, 1e-14, CertTheorem.CORRECTED, 64),
    ("x5", -1.0, 1.0, 1e-6, CertTheorem.CORRECTED, 1),
    # corrected_fejer's rounding part at n = 1 is above tol
    ("x2", -1.3289972113926303, 1.4252986894327058, 1.784519080023863e-15,
     CertTheorem.FEJER, 8),
    # f'''' = sin and f'' = -sin bend both ways around pi, where |f''| has
    # its least value: quasi-convex only
    ("sin", 2.0, 4.5, 1e-8, CertTheorem.QUASI_Q1, 8192),
]


class TestCertify:
    """``certify`` runs the rule ladder of `hh certify`: the certificate of
    the first rule of ``_LADDER`` that certifies, bit for bit."""

    @pytest.mark.parametrize("outcomes, raised, tried", [
        # no rule certifies: the first ConvergenceError, or else the last
        # HypothesisError
        (["hyp", "conv", "conv", "hyp"], "conv 1", 4),
        (["hyp", "hyp", "hyp", "hyp"], "hyp 3", 4),
        # an EvaluationError ends the ladder at once
        (["hyp", "eval", "ok", "ok"], "eval 1", 2),
        # a rule that certifies ends the ladder
        (["conv", "hyp", "ok", "hyp"], None, 3),
    ])
    def test_which_refusal_the_ladder_raises(self, by_id, outcomes, raised, tried, monkeypatch):
        errors = {"hyp": HypothesisError, "conv": ConvergenceError, "eval": EvaluationError}
        calls, made = [], []
        certificate = object()

        def rule(fn, iv, tol, theorem):
            i = certifier._LADDER.index(theorem)
            calls.append(i)
            if outcomes[i] == "ok":
                return certificate
            made.append(errors[outcomes[i]](f"{outcomes[i]} {i}"))
            raise made[-1]

        monkeypatch.setattr(certifier, "refine_to_tolerance", rule)
        if raised is None:
            assert certify(by_id["x2"], UNIT, 1e-6) is certificate
        else:
            with pytest.raises(errors[raised.split()[0]], match=f"^{raised}$") as info:
                certify(by_id["x2"], UNIT, 1e-6)
            # the very exception its rule raised, message and all
            assert any(info.value is exc for exc in made)
        assert calls == list(range(tried))

    @pytest.mark.parametrize("fid, a, b, tol, theorem, n", CERTIFIED)
    def test_the_first_rule_that_certifies_gives_its_certificate(self, by_id, fid, a, b, tol,
                                                                 theorem, n):
        fn, iv = by_id[fid], Interval(a, b)
        cert = certify(fn, iv, tol)
        assert (cert.theorem_used, cert.subintervals) == (theorem, n)
        assert bits(cert) == bits(refine_to_tolerance(fn, iv, tol, theorem))
        for earlier in certifier._LADDER[:certifier._LADDER.index(theorem)]:
            with pytest.raises((ConvergenceError, HypothesisError)):
                refine_to_tolerance(fn, iv, tol, earlier)

    @pytest.mark.parametrize("fid, a, b, tol, theorem, n",
                             [request for request in CERTIFIED
                              if request[4] is not CertTheorem.CORRECTED])
    def test_a_request_that_falls_through_encloses_the_exact_integral(self, by_id, fid, a, b,
                                                                      tol, theorem, n):
        cert = certify(by_id[fid], Interval(a, b), tol)
        assert (cert.theorem_used, cert.subintervals) == (theorem, n)
        assert cert.error_radius <= tol
        assert abs(cert.estimate - exact_integral(fid, a, b)) <= cert.error_radius

    def test_no_class_raises_the_last_class_refusal(self, by_id):
        with pytest.raises(HypothesisError) as info:
            certify(by_id["sin"], Interval(0.0, 6.0), 1e-6)
        assert str(info.value) == (
            "class check failed: |f''| of 'sin' is not quasi-convex on [0.0, 6.0]")

    def test_a_floor_raises_the_first_convergence_error(self, by_id):
        # the first three rules are refused their class, and quasi_q1's floor
        # refuses at n = 1
        with pytest.raises(ConvergenceError,
                           match=r"\(floor from the f'' read up to n=1\), above 1e-20$"):
            certify(by_id["sin"], QUASI_IV, 1e-20)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
    def test_a_tolerance_that_is_not_positive_is_refused_before_any_evaluation(self, by_id,
                                                                               tol):
        fn, calls = counted(by_id["exp"], "f", "d1", "d2", "d4")
        with pytest.raises(DomainError, match="^tolerance must be positive"):
            certify(fn, Interval(-1.0, 1.0), tol)
        assert calls == {"f": 0, "d1": 0, "d2": 0, "d4": 0}

    def test_an_evaluation_error_ends_the_ladder_at_once(self, by_id, monkeypatch):
        # exp over [700, 709]: no evaluation overflows, the f'''' sum does
        tried = []
        single = certifier.refine_to_tolerance
        monkeypatch.setattr(certifier, "refine_to_tolerance",
                            lambda *call: tried.append(call[-1]) or single(*call))
        with pytest.raises(EvaluationError) as info:
            certify(by_id["exp"], Interval(700.0, 709.0), 1e300)
        assert str(info.value) == "f'''' is not finite on the grid of n=16"
        assert tried == [CertTheorem.CORRECTED]


def peano_kernel(t, h):
    """The corrected midpoint rule's Peano kernel L on the panel [0, h]: the
    panel's error is the integral of L f''''.  L'' is the midpoint rule's
    peak kernel minus h^2/24, and L and L' vanish at both ends."""
    s = min(t, h - t)
    return s ** 4 / 24 - h * h * s * s / 48


def kernel_moment(g, h):
    """The exact integral over [0, h] of L times the polynomial with
    rational coefficients g (constant first): by the symmetry of L, the
    integral over [0, h/2] of L(s) (g(s) + g(h - s))."""
    n = len(g)
    # g(s) + g(h - s), expanded in powers of s
    both = [g[j] + sum(g[i] * math.comb(i, j) * h ** (i - j) * (-1) ** j for i in range(j, n))
            for j in range(n)]
    left = [Fraction(0)] * 2 + [-h * h / 48] + [Fraction(0), Fraction(1, 24)]  # L on [0, h/2]
    product = [Fraction(0)] * (len(left) + n - 1)
    for i, p in enumerate(left):
        for j, q in enumerate(both):
            product[i + j] += p * q
    return sum(c * (h / 2) ** (k + 1) / (k + 1) for k, c in enumerate(product))


#: the certify ladder under CORRECTED with the n each rung takes (390 in
#: all, against 2,564 under FEJER), then requests that take hundreds to
#: thousands of panels under the other rules
CORRECTED_LADDER = [
    ("x2", 0.0, 1.0, 1e-6, 1),
    ("exp", -1.0, 1.0, 1e-8, 16),
    ("x3", 0.0, 2.0, 1e-8, 1),
    ("x4", -1.5, 1.5, 1e-8, 1),
    ("affine", 0.0, 2.0, 1e-12, 1),
    ("x_5_2", 0.25, 4.0, 1e-9, 64),
    ("inv_x", 1.0, 2.0, 1e-10, 32),
    ("x5", 0.5, 1.5, 1e-10, 1),
    ("neg_ln", 0.5, 3.0, 1e-10, 128),
    ("x_5_2", 1.0, 2.0, 1e-10, 16),
    ("x2", 0.0, 1.0, 1e-12, 1),
    ("inv_x", 1.0, 2.0, 1e-12, 64),
    ("exp", -1.0, 1.0, 1e-11, 64),
    ("x4", -1.5, 1.5, 1e-12, 1),
    ("sin", 0.0, 3.0, 1e-10, 64),
    ("x_5_2", 1.0, 2.0, 1e-14, 64),
    ("x5", -1.0, 1.0, 1e-6, 1),
    ("inv_x", 0.25, 4.0, 1e-13, 1024),
]


def _with_d4(d4, f=lambda x: x * x, d1=lambda x: 2.0 * x):
    return core.TestFunction("custom", f, d1, lambda x: 2.0, UNIT, d4=d4)


class TestCorrected:
    def test_one_peak_kernel_under_the_h3_rules(self):
        # the peak kernel is t^2/2 at distance t from the nearer end of the
        # panel, so its integral is 2 (h/2)^3/6 = h^3/24
        assert [theorem for theorem in CertTheorem if theorem.kernel is certifier._PEAK] == [
            CertTheorem.CONVEX_Q1, CertTheorem.QUASI_Q1, CertTheorem.FEJER]
        assert certifier._PEAK == (1, 24, 3)
        assert [theorem for theorem in CertTheorem if theorem.bracketed] == [
            CertTheorem.FEJER, CertTheorem.CORRECTED]

    def test_peano_kernel_in_fractions(self):
        kernel = CertTheorem.CORRECTED.kernel
        weight = Fraction(kernel.numerator, kernel.denominator)
        assert (weight, kernel.power) == (Fraction(-7, 5760), 5)
        # x^4 on [0, 1]: 1/5 - 1/16 (midpoint) - 1/6 (end correction)
        assert Fraction(1, 5) - Fraction(1, 16) - Fraction(4, 24) == Fraction(-7, 240) == 24 * weight
        for h in (Fraction(1), Fraction(3, 2)):
            assert all(peano_kernel(h * k / 96, h) <= 0 for k in range(97))
            assert kernel_moment([Fraction(1)], h) == weight * h ** 5
            # L is the kernel: for f = x^k on [0, h], the panel's error (the
            # integral minus h f(h/2) minus h^2/24 (f'(h) - f'(0))) is the
            # integral of L f''''
            for k in range(4, 9):
                error = h ** (k + 1) / (k + 1) - h * (h / 2) ** k - h * h / 24 * k * h ** (k - 1)
                f4 = [Fraction(0)] * (k - 4) + [Fraction(k * (k - 1) * (k - 2) * (k - 3))]
                assert kernel_moment(f4, h) == error, (h, k)

    @pytest.mark.parametrize("fid, a, b, tol, n", CORRECTED_LADDER)
    def test_every_rung_encloses_the_exact_integral(self, by_id, fid, a, b, tol, n):
        res = refine_to_tolerance(by_id[fid], Interval(a, b), tol, CertTheorem.CORRECTED)
        assert res.theorem_used is CertTheorem.CORRECTED
        assert res.subintervals == n
        assert res.error_radius <= tol
        assert res.error_radius >= res.truncation_radius + res.rounding_radius
        assert abs(res.estimate - exact_integral(fid, a, b)) <= res.error_radius

    def test_radius_scaled_by_0_75_misses_some_rung(self, by_id):
        misses = []
        for fid, a, b, tol, _ in CORRECTED_LADDER:
            res = refine_to_tolerance(by_id[fid], Interval(a, b), tol, CertTheorem.CORRECTED)
            miss = abs(res.estimate - exact_integral(fid, a, b))
            misses.append(miss > 0.75 * res.error_radius)
        assert any(misses)

    @pytest.mark.parametrize("fid, a, b, tol", [
        (fid, a, b, tol) for fid, a, b, tol, _ in CORRECTED_LADDER])
    def test_equals_single_pass_at_the_fewest_doublings(self, by_id, fid, a, b, tol):
        fn, iv = by_id[fid], Interval(a, b)
        res = refine_to_tolerance(fn, iv, tol, CertTheorem.CORRECTED)
        n = res.subintervals
        assert res == integrate_certified(fn, iv, n, CertTheorem.CORRECTED)
        if n > 1:
            assert integrate_certified(fn, iv, n // 2, CertTheorem.CORRECTED).error_radius > tol

    @pytest.mark.parametrize("fid, a, b, tol", [
        ("exp", -1.0, 1.0, 1e-8),
        ("x_5_2", 0.25, 4.0, 1e-9),
        ("inv_x", 1.0, 2.0, 1e-12),
    ])
    @pytest.mark.usefixtures("class_checks_pass")
    def test_reads_f4_at_2n_plus_1_cuts_f_at_n_midpoints_and_f1_at_the_ends(
            self, by_id, fid, a, b, tol):
        fn, calls = counted(by_id[fid], "f", "d1", "d2", "d4")
        res = refine_to_tolerance(fn, Interval(a, b), tol, CertTheorem.CORRECTED)
        n = res.subintervals
        assert n > 1
        assert calls == {"f": n, "d1": 2, "d2": 0, "d4": 2 * n + 1}
        for n in (5, 48, 64):
            fn, calls = counted(by_id[fid], "f", "d1", "d2", "d4")
            integrate_certified(fn, Interval(a, b), n, CertTheorem.CORRECTED)
            assert calls == {"f": n, "d1": 2, "d2": 0, "d4": 2 * n + 1}

    @pytest.mark.parametrize("n", [5, 3 << 4])
    @pytest.mark.usefixtures("class_checks_pass")
    def test_walk_from_the_odd_part_reads_every_cut_once(self, by_id, n):
        fn, seen = recorded(by_id["inv_x"], "f", "d1", "d4")
        iv = Interval(1.0, 2.0)
        res = integrate_certified(fn, iv, n, CertTheorem.CORRECTED)
        cuts = [iv.a + iv.width * i / (2 * n) for i in range(2 * n)] + [iv.b]
        mids = cuts[1::2]
        assert sorted(seen["d4"]) == cuts
        assert seen["f"] == mids
        assert seen["d1"] == [iv.a, iv.b]
        # the same certificate, summed at once over the whole grid
        h = iv.width / n
        g = [fn.d4(x) for x in cuts]
        trapezoid = math.fsum([0.5 * g[0], 0.5 * g[-1]] + g[2:-1:2])
        midpoint = math.fsum(g[1::2])
        weight = 7 * h ** 5 / 5760
        assert res.truncation_radius == pytest.approx(
            weight * abs(trapezoid - midpoint) / 2, rel=1e-12)
        estimate = (h * math.fsum(map(fn.f, mids)) + h * h / 24 * (fn.d1(iv.b) - fn.d1(iv.a))
                    - weight * (trapezoid + midpoint) / 2)
        assert res.estimate == pytest.approx(estimate, rel=1e-15)
        assert abs(res.estimate - math.log(2.0)) <= res.error_radius

    def test_level_above_chunk_weight_matches_one_fsum(self, by_id):
        fn, iv = by_id["exp"], Interval(-1.0, 1.0)
        walk = certifier._Walk(fn, iv, CertTheorem.CORRECTED, 1)
        while walk.n <= 2 * CHUNK:
            walk.double()
        grid = 2 * walk.n
        g = [fn.d4(iv.a + iv.width * i / grid) for i in range(grid)] + [fn.d4(iv.b)]
        assert walk.ends == (g[0], g[-1])
        halves = [0.5 * end for end in walk.ends]
        pairs = [(math.fsum(walk.sums), g[1:-1]),
                 (math.fsum(walk.sizes), [abs(y) for y in g[1:-1]]),
                 (math.fsum(chain(halves, walk.sums[:walk.top])),
                  [0.5 * g[0], 0.5 * g[-1]] + g[2:-1:2]),
                 (math.fsum(walk.sums[walk.top:]), g[1::2])]
        for computed, terms in pairs:
            reference = math.fsum(terms)
            assert abs(computed - reference) <= 2.0 ** -53 * reference

    def test_end_correction(self, by_id):
        # x2 on [0, 1] at n = 1: Q = 1/4 + 1/24 (2 - 0) = 1/3, exact
        res = integrate_certified(by_id["x2"], UNIT, 1, CertTheorem.CORRECTED)
        assert res.estimate == 1.0 / 3.0
        assert res.truncation_radius == 0.0

    @pytest.mark.usefixtures("class_checks_pass")
    def test_rounding_part_holds_the_two_f1_reads(self):
        # f = 0 and f'''' = 0 leave only the error bound of the two f'
        # reads, h^2/24 * share * (|f'(a)| + |f'(b)|), in the rounding part
        fn = _with_d4(lambda x: 0.0, f=lambda x: 0.0, d1=lambda x: 1e6)
        for n in (1, 4):
            res = integrate_certified(fn, UNIT, n, CertTheorem.CORRECTED)
            assert res.estimate == 0.0 == res.truncation_radius
            exact = Fraction(1, 24 * n * n) * Exact.share * 2 * 10 ** 6
            assert exact <= Fraction(res.rounding_radius) <= (1 + 16 * Exact.u) * exact

    def test_refuses_a_function_without_f4_before_any_evaluation(self):
        fn, calls = counted(_function(), "f", "d1", "d2")
        assert fn.d4 is None
        for call in (lambda: refine_to_tolerance(fn, UNIT, 1e-6, CertTheorem.CORRECTED),
                     lambda: integrate_certified(fn, UNIT, 4, CertTheorem.CORRECTED)):
            with pytest.raises(HypothesisError, match="'custom' declares no f''''"):
                call()
        assert calls == {"f": 0, "d1": 0, "d2": 0}

    def test_refuses_where_f4_changes_convexity(self, by_id):
        # f'''' = sin and f'' = -sin both bend both ways around pi: the CLI
        # falls back to quasi_q1 there
        for theorem, derivative in ((CertTheorem.CORRECTED, "f''''"),
                                    (CertTheorem.FEJER, "f''")):
            with pytest.raises(HypothesisError,
                               match=f"{derivative} of 'sin' is not convex or concave"):
                refine_to_tolerance(by_id["sin"], QUASI_IV, 1e-8, theorem)

    @pytest.mark.usefixtures("class_checks_pass")
    def test_nan_fourth_derivative_fails_at_the_first_level(self):
        fn, calls = counted(_with_d4(lambda x: math.nan), "f", "d4")
        with pytest.raises(EvaluationError, match="f'''' is not finite"):
            refine_to_tolerance(fn, UNIT, 1e-6, CertTheorem.CORRECTED)
        assert calls == {"f": 0, "d4": 2}
        with pytest.raises(EvaluationError):
            integrate_certified(fn, UNIT, 64, CertTheorem.CORRECTED)

    @pytest.mark.usefixtures("class_checks_pass")
    def test_non_finite_first_derivative_gives_no_certificate(self):
        fn = _with_d4(lambda x: 0.0, d1=lambda x: math.inf)
        with pytest.raises(EvaluationError, match="f' is not finite"):
            refine_to_tolerance(fn, UNIT, 1e-6, CertTheorem.CORRECTED)

    @pytest.mark.parametrize("theorem, derivative", [(CertTheorem.CORRECTED, "d4"),
                                                     (CertTheorem.FEJER, "d2")])
    @pytest.mark.usefixtures("class_checks_pass")
    def test_floor_refuses_before_reading_f(self, by_id, theorem, derivative):
        # exp over [0, 700]: the rounding slack of the sums read at n = 1
        # already puts every truncation part up to 2^20 above the tolerance
        fn, calls = counted(by_id["exp"], "f", derivative)
        with pytest.raises(ConvergenceError, match="at least"):
            refine_to_tolerance(fn, Interval(0.0, 700.0), 1e-6, theorem)
        assert calls == {"f": 0, derivative: 3}

    # a walk from 255 has one level, at 255 of the 256 panels the cap allows:
    # there a floor read from the starting grid's cuts would be twice the
    # truncation part under CONVEX_Q1
    @pytest.mark.parametrize("start", [1, 3, 255])
    @pytest.mark.parametrize("theorem", list(CertTheorem))
    # x4 and x5 (FEJER: x2, x3) have T = M, so the half-width is the slack
    # alone and the floor is within a few u of it at the cap; every |f''|
    # here is convex, as the CONVEX_Q1 floor needs
    @pytest.mark.parametrize("fid, a, b", [("exp", -1.0, 1.0), ("inv_x", 1.0, 2.0),
                                           ("exp", 0.0, 700.0), ("x4", -1.5, 1.5),
                                           ("x5", 0.5, 1.5), ("x3", 0.0, 2.0)])
    def test_floor_bounds_every_finer_truncation_part(self, by_id, monkeypatch,
                                                      theorem, start, fid, a, b):
        monkeypatch.setattr(certifier, "MAX_SUBINTERVALS", 1 << 8)
        walk = certifier._Walk(by_id[fid], Interval(a, b), theorem, start)
        floors, parts = [], []
        while True:
            floors.append(walk.floor())
            parts.append(walk.truncation())
            if 2 * walk.n > 1 << 8:
                break
            walk.double()
        assert floors == sorted(floors)
        # a part past the float range reads +inf, above every floor
        assert all(floor <= part for level, floor in enumerate(floors)
                   for part in parts[level:])

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the Horner evaluator of the expanded (x - 1)^6 cancels near "
                              "its root, far past ULPS (ROADMAP item 5)")
    def test_the_expanded_sixth_power_near_its_root_encloses(self):
        # the rule `hh certify` tries first takes n = 1 and misses the
        # exact integral, 2e-28/7, by about 4,228 radii
        fn = core.polynomial([1, -6, 15, -20, 15, -6, 1])
        iv = Interval(0.9999, 1.0001)
        cert = refine_to_tolerance(fn, iv, 1e-12, CertTheorem.CORRECTED)
        exact = ((Fraction(iv.b) - 1) ** 7 - (Fraction(iv.a) - 1) ** 7) / 7
        assert abs(Fraction(cert.estimate) - exact) <= Fraction(cert.error_radius)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the midpoint of a far interval is rounded, which moves sin by "
                              "far more than ULPS covers (ROADMAP item 15)")
    def test_a_far_sin_interval_with_a_rounded_midpoint_encloses(self, by_id):
        # the certificate takes n = 1 with radius 4.63e-18, and misses the
        # integral by 1.85e-13, about 39,910 radii: its midpoint is off by
        # 5.8e-11
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(-554847.0445005994, -554847.039130608)
        cert = refine_to_tolerance(by_id["sin"], iv, 5.787e-16, CertTheorem.CORRECTED)
        with mpmath.mp.workdps(60):
            exact = mpmath.cos(mpmath.mpf(iv.a)) - mpmath.cos(mpmath.mpf(iv.b))
            miss = abs(mpmath.mpf(cert.estimate) - exact)
        assert miss <= cert.error_radius

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the midpoint is rounded, which moves exp by far more than "
                              "ULPS covers (ROADMAP item 15), and `enclosed` passes the "
                              "miss (ROADMAP item 8)")
    def test_a_far_exp_interval_with_a_rounded_midpoint_refuses_or_encloses(self, by_id):
        # the certificate takes n = 1 with radius 6.64e240 and misses the
        # integral by 64.0 radii: its midpoint is off by 5.7e-14
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(596.1196691907426, 596.1206262413542)
        try:
            cert = refine_to_tolerance(by_id["exp"], iv, 1.8208686871134713e+242,
                                       CertTheorem.CORRECTED)
        except ConvergenceError:
            return
        with mpmath.mp.workdps(60):
            exact = mpmath.exp(mpmath.mpf(iv.b)) - mpmath.exp(mpmath.mpf(iv.a))
            miss = abs(mpmath.mpf(cert.estimate) - exact)
        assert miss <= cert.error_radius


class Exact:
    """The error model in exact rationals, from ``ULPS`` (see the certifier's
    module docstring); the certifier holds it as float literals rounded
    outward."""

    u = Fraction(1, 1 << 53)
    share = 2 * certifier.ULPS * u / (1 - 2 * certifier.ULPS * u)
    inflation = (1 + share) / (1 - u) ** 2
    spread = (share + u) / (1 - u) ** 2
    deflation = 1 / ((1 + 2 * certifier.ULPS * u) * (1 + u) ** 2)


def exact_span(walk):
    return Fraction(walk.iv.b) - Fraction(walk.iv.a)


def kernel_integral(walk, n):
    """The signed integral of the walk's kernel over one panel of the n-grid."""
    numerator, denominator, power = walk.theorem.kernel
    return Fraction(numerator, denominator) * (exact_span(walk) / n) ** power


def reference_truncation(walk):
    """The exact value that ``_Walk.truncation`` bounds from above: its
    formulas in exact rationals, on the walk's computed sums."""
    if walk.theorem.bracketed:
        trapezoid, midpoint = map(Fraction, walk._sides())
        half_width = (abs(trapezoid - midpoint) / 2 + Exact.spread * Fraction(walk._size())
                      + Exact.u * (abs(trapezoid) + abs(midpoint)))
        return abs(kernel_integral(walk, walk.n)) * half_width
    if walk.theorem is CertTheorem.QUASI_Q1:
        weight = (Exact.inflation * Fraction(walk._size(1.0))
                  - Exact.deflation * Fraction(walk.least))
    else:
        weight = Exact.inflation * Fraction(walk._size())
    return (exact_span(walk) / walk.n) ** 3 / 24 * weight


def reference_floor(walk):
    """The exact value that ``_Walk.floor`` bounds from below."""
    cap = certifier.MAX_SUBINTERVALS
    if walk.theorem.bracketed:
        return abs(kernel_integral(walk, cap)) * Exact.spread * Fraction(walk._size())
    if walk.theorem is CertTheorem.QUASI_Q1:
        return kernel_integral(walk, cap) * Fraction(walk._size())
    if walk.n == walk.start:
        return Fraction(0)
    span = exact_span(walk)
    odd_sum = Fraction(math.fsum(walk.sizes[walk.top:]))
    return span ** 2 / (24 * cap ** 2) * (2 * span / walk.n) * odd_sum * Exact.deflation


def f_sums(walk):
    """S and sum |f|: the fsums of f and |f| at the walk's midpoints, as
    ``_Walk.certificate`` reads them."""
    chunks = list(walk._chunk_sums(walk.fn.f, 2 * walk.n, 2, "f"))
    return math.fsum(c[0] for c in chunks), math.fsum(c[1] for c in chunks)


def reference_estimate(walk):
    """The exact estimate, with exact h on the walk's computed sums, and
    the exact bound of its evaluation and summation error: the terms that
    ``_Walk.certificate`` bounds."""
    total, size = map(Fraction, f_sums(walk))
    h = exact_span(walk) / walk.n
    estimate, error = h * total, h * (Exact.spread * size + Exact.u * abs(total))
    if walk.theorem.bracketed:
        trapezoid, midpoint = map(Fraction, walk._sides())
        estimate += kernel_integral(walk, walk.n) * (trapezoid + midpoint) / 2
    if walk.theorem is CertTheorem.CORRECTED:
        left, right = (Fraction(walk.fn.d1(x)) for x in (walk.iv.a, walk.iv.b))
        estimate += h * h / 24 * (right - left)
        error += h * h / 24 * Exact.share * (abs(left) + abs(right))
    return estimate, error


U = Exact.u

#: a bound below the normal range keeps its side but not its relative
#: accuracy: x2 over [0, 1e-160] has truncation parts near 1e-480, and the
#: least subnormal times the weight bounds them
TINY = Fraction(2.0 ** -1022)


def assert_bounds_within_64u(walk):
    """The float truncation part is within 64u above the exact formulas,
    and exactly 0 where they are; the float floor is within 64u below."""
    where = (walk.fn.id, walk.iv, walk.theorem, walk.n)
    part, exact = walk.truncation(), reference_truncation(walk)
    if exact == 0:
        assert part == 0.0, where
    elif part == math.inf:
        assert (1 + 64 * U) * exact > Fraction(sys.float_info.max), where
    else:
        assert exact <= Fraction(part) <= (1 + 64 * U) * exact + TINY, where
    floor, exact = walk.floor(), reference_floor(walk)
    assert (1 - 64 * U) * exact - TINY <= Fraction(floor) <= exact, where


#: every catalog window; exp over [0, 700], whose truncation parts are past
#: the float range at n = 1; x2 over [0, 1e-160], whose are below it; and
#: two intervals whose b - a rounds, down and up
BOUND_REQUESTS = [(fn.id, fn.window) for fn in core.builtin_catalog()] + [
    ("exp", Interval(0.0, 700.0)), ("x2", Interval(0.0, 1e-160)),
    ("exp", Interval(0.1, 0.7)), ("inv_x", Interval(0.1, 3.0))]


class TestFloatBounds:
    """``_Walk.truncation`` and ``_Walk.floor`` bound the exact formulas in
    floats with directed rounding (see Arithmetic in the module docstring)."""

    @pytest.mark.parametrize("fid, iv", BOUND_REQUESTS,
                             ids=[f"{fid}-{iv.a}-{iv.b}" for fid, iv in BOUND_REQUESTS])
    @pytest.mark.parametrize("theorem", list(CertTheorem))
    def test_within_64u_of_the_exact_formulas(self, by_id, theorem, fid, iv):
        walk = certifier._Walk(by_id[fid], iv, theorem, 1)
        while True:
            assert_bounds_within_64u(walk)
            if walk.n == 1 << 10:
                break
            walk.double()

    @pytest.mark.parametrize("n", [1701, 3003])
    @pytest.mark.parametrize("theorem", list(CertTheorem))
    def test_within_64u_from_an_odd_start(self, catalog, theorem, n):
        # integrate_certified walks from the odd part of n; 1701^5 and
        # 3003^5 are past 2^53, so the walk divides span by n before it
        # takes the k-th power
        for fn in catalog:
            walk = certifier._Walk(fn, fn.window, theorem, n)
            assert_bounds_within_64u(walk)
            try:
                res = integrate_certified(fn, fn.window, n, theorem)
            except HypothesisError:
                continue
            assert res.truncation_radius == walk.truncation()

    def test_zero_only_where_exact(self, by_id):
        # a derivative that reads 0 at every cut gives exactly 0; a product
        # that underflows to 0 steps to a subnormal
        for fid in ("x2", "x3", "affine"):
            fn = by_id[fid]
            res = integrate_certified(fn, fn.window, 64, CertTheorem.CORRECTED)
            assert res.truncation_radius == 0.0
        affine = by_id["affine"]
        assert integrate_certified(affine, affine.window, 4).truncation_radius == 0.0
        res = integrate_certified(by_id["x2"], Interval(0.0, 1e-160), 1 << 10)
        assert 0.0 < res.truncation_radius < 1e-300

    @pytest.mark.parametrize("fid, a, b, tol, theorem", [
        ("exp", 0.0, 700.0, 1e-6, CertTheorem.CORRECTED),
        ("inv_x", 0.25, 4.0, 1e-300, CertTheorem.CORRECTED),
        ("exp", 0.0, 700.0, 1e-6, CertTheorem.FEJER),
        ("x4", -1.5, 1.5, 1e-12, CertTheorem.CONVEX_Q1),
        ("x2", 0.0, 1.0, 1e-15, CertTheorem.CONVEX_Q1),
    ])
    def test_refusal_prints_a_lower_bound_of_the_floor(self, by_id, fid, a, b, tol, theorem):
        fn, iv = by_id[fid], Interval(a, b)
        with pytest.raises(ConvergenceError, match="at least") as caught:
            refine_to_tolerance(fn, iv, tol, theorem)
        found = re.search(r"at least (\S+) \(floor from the \S+ read up to n=(\d+)\)",
                          str(caught.value))
        printed, n = Fraction(float(found[1])), int(found[2])
        walk = certifier._Walk(fn, iv, theorem, 1)
        while walk.n < n:
            walk.double()
        assert tol < printed <= reference_floor(walk)
        if theorem is CertTheorem.CORRECTED:
            # `hh certify`'s two refusals: the exact floor rounded to
            # nearest, as they printed it before, is above the exact floor
            rounded = {"exp": 4.5357985832159197e+269, "inv_x": 4.849687504218322e-42}[fid]
            assert rounded == float(reference_floor(walk))
            assert Fraction(rounded) > reference_floor(walk)


class TestModel:
    @pytest.mark.parametrize("name, exact, side", [
        ("SHARE", Exact.share, 1), ("SPREAD", Exact.spread, 1),
        ("INFLATION", Exact.inflation, 1), ("DEFLATION", Exact.deflation, -1),
        ("SHRINK", Exact.deflation / Exact.inflation, -1)])
    def test_each_constant_is_its_exact_value_rounded_outward(self, name, exact, side):
        # the nearest float to the exact value on the side that keeps every
        # bound built on it sound; none of them is a float, so the float
        # next to it on the other side bounds it the other way
        value = getattr(certifier, name)
        beyond = math.nextafter(value, -side * math.inf)
        assert side * Fraction(beyond) < side * exact < side * Fraction(value), name


#: operands of the bound helpers at the edges of the float range: zeros,
#: powers of two whose products and quotients are exact or fall below the
#: normal range, products that underflow to 0 and one that overflows
EDGES = [(0.0, 3.0), (3.0, 0.0), (3.0, 0.5), (1.5, 2.0 ** -1074), (0.75, 2.0 ** -1073),
         (2.0 ** -1074, 2.0 ** -1074), (1e-200, 1e-200), (1e200, 1e200), (0.1, 0.3),
         (1.0, 3.0), (2.0 ** -1073, 4.0), (3.0 * 2.0 ** -1074, 2.0)]


@pytest.mark.parametrize("x, y", EDGES)
def test_each_helper_bounds_its_exact_value_at_the_edges(x, y):
    # +inf is an upper bound past the float range, never a lower one
    for toward, side in ((math.inf, 1), (0.0, -1)):
        results = [(certifier._product(x, y, toward), Fraction(x) * Fraction(y))]
        if y:
            results.append((certifier._quotient(x, y, toward), Fraction(x) / Fraction(y)))
        for bound, exact in results:
            assert 0.0 <= bound, (x, y)
            assert (bound == math.inf) if bound > sys.float_info.max else (
                side * (Fraction(bound) - exact) >= 0), (x, y, side)


class Replay:
    """Float operations of the certifier's bounds, each checked against the
    exact value of the expression it stands for: an upper bound must be at
    least it, a lower bound at most it (and not below 0 where it is not)."""

    def __init__(self, where):
        self.where, self.steps = where, 0

    def up(self, value, exact):
        self.steps += 1
        assert value == math.inf or Fraction(value) >= exact, (self.where, self.steps)
        return value

    def down(self, value, exact):
        self.steps += 1
        assert Fraction(value) <= exact and (value >= 0 or exact < 0), (self.where, self.steps)
        return value


# The certifier's rules for a step (see Arithmetic in its module docstring),
# written out again: a rounded sum steps one float out unless it is 0; a
# product of non-negative floats unless a factor is 0, or the second is a
# power of two and the product comes back exactly; a quotient unless the
# divisor is a power of two and the quotient comes back exactly.

def power_of_two(x):
    return math.frexp(x)[0] == 0.5


def sum_up(x):
    return math.nextafter(x, math.inf) if x else 0.0


def sum_down(x):
    return math.nextafter(x, -math.inf) if x else 0.0


def product(x, y, toward):
    if x == 0 or y == 0:
        return 0.0
    p = x * y
    return p if power_of_two(y) and p / y == x else math.nextafter(p, toward)


def quotient(x, d, toward):
    q = x / d
    return q if power_of_two(d) and q * d == x else math.nextafter(q, toward)


UP, DOWN = math.inf, 0.0


def replay_factors(walk, check):
    """The walk's ``span``, ``part`` and ``below``, one operation at a time:
    the span from exact rationals, then the kernel's |integral| over [a, b]
    as one panel, over the start's n^k (halved under a bracketed rule,
    times inflation under a Q1 rule), and that |integral| at the cap times
    spread (bracketed), 1 (QUASI_Q1) or 2 deflation cap/start (CONVEX_Q1)."""
    iv, cap, m = walk.iv, certifier.MAX_SUBINTERVALS, walk.start
    numerator, denominator, power = walk.theorem.kernel
    span, width = exact_span(walk), iv.b - iv.a
    low = check.down(width if Fraction(width) <= span else math.nextafter(width, 0.0), span)
    high = check.up(width if Fraction(width) >= span else math.nextafter(width, math.inf), span)
    if walk.theorem.bracketed:
        top, exact_top, exact_bottom = 0.5, Fraction(1, 2), Exact.spread
        bottom = math.nextafter(certifier.SPREAD, 0.0)
    elif walk.theorem is CertTheorem.QUASI_Q1:
        top, bottom, exact_top, exact_bottom = certifier.INFLATION, 1.0, Exact.inflation, 1
    else:
        top, bottom = certifier.INFLATION, 2.0 * certifier.DEFLATION
        exact_top, exact_bottom = Exact.inflation, 2 * Exact.deflation
    c = Fraction(abs(numerator), denominator)
    part = check.up(quotient(check.up(product(top, abs(numerator), UP), abs(numerator) * exact_top),
                             denominator, UP), c * exact_top)
    below = check.down(quotient(check.down(product(bottom, abs(numerator), DOWN),
                                           abs(numerator) * exact_bottom),
                                denominator, DOWN), c * exact_bottom)
    exact_part, exact_below = c * exact_top, c * exact_bottom
    if walk.theorem is CertTheorem.CONVEX_Q1:
        exact_below *= span / m
        below = check.down(product(below, check.down(quotient(low, m, DOWN), span / m), DOWN),
                           exact_below)
    step = check.up(quotient(high, m, UP), span / m)
    scale = check.down(quotient(low, cap, DOWN), span / cap)
    for _ in range(power):
        exact_part *= span / m
        part = check.up(product(part, step, UP), exact_part)
    for _ in range(power - (walk.theorem is CertTheorem.CONVEX_Q1)):
        exact_below *= span / cap
        below = check.down(product(below, scale, DOWN), exact_below)
    assert (low, high, part, below) == (*walk.span, walk.part, walk.below), check.where
    return exact_part, exact_below


def replay_truncation(walk, check):
    """``_Walk.truncation`` one float operation at a time, each paired with
    its exact value on the walk's computed sums; the last exact value is
    ``reference_truncation``."""
    exact_part = replay_factors(walk, check)[0] / (walk.n // walk.start) ** walk.power
    part = check.up(quotient(walk.part, (walk.n // walk.start) ** walk.power, UP), exact_part)
    if walk.theorem.bracketed:
        trapezoid, midpoint = walk._sides()
        size = walk._size()
        t, m, s = Fraction(trapezoid), Fraction(midpoint), Fraction(size)
        gap = abs(t - m)
        slack = 2 * Exact.spread * s
        sides = abs(t) + abs(m)
        exact = gap + slack + 2 * U * sides
        width = check.up(sum_up(
            check.up(sum_up(check.up(sum_up(abs(trapezoid - midpoint)), gap)
                            + check.up(product(2.0 * certifier.SPREAD, size, UP), slack)),
                     gap + slack)
            + check.up(product(check.up(sum_up(abs(trapezoid) + abs(midpoint)), sides),
                               2.0 ** -52, UP),
                       2 * U * sides)), exact)
    elif walk.theorem is CertTheorem.QUASI_Q1:
        total = walk._size(1.0)
        shrink = Exact.deflation / Exact.inflation
        least = check.down(product(certifier.SHRINK, walk.least, DOWN),
                           shrink * Fraction(walk.least))
        exact = Fraction(total) - shrink * Fraction(walk.least)
        width = check.up(sum_up(total - least), exact)
    else:
        width = walk._size()
        exact = Fraction(width)
    exact *= exact_part
    assert exact == reference_truncation(walk)
    return check.up(product(part, width, UP), exact)


def replay_floor(walk, check):
    """``_Walk.floor`` one float operation at a time, as
    ``replay_truncation``; the last exact value is ``reference_floor``."""
    factor = replay_factors(walk, check)[1]
    if walk.theorem is CertTheorem.CONVEX_Q1:
        size = math.fsum(walk.sizes[walk.top:]) if walk.n > walk.start else 0.0
        levels = walk.n // walk.start
        factor /= levels
        below = check.down(quotient(walk.below, levels, DOWN), factor)
    else:
        size, below = walk._size(), walk.below
    exact = factor * Fraction(size)
    assert exact == reference_floor(walk)
    return check.down(product(below, size, DOWN), exact)


def replay_certificate(walk, check):
    """``_Walk.certificate``'s estimate, rounding part and error radius, one
    float operation at a time, each paired with its exact value; the exact
    estimate and error are ``reference_estimate``'s, and the rounding part
    bounds the estimate's distance from the one plus the other."""
    n, (numerator, denominator, power) = walk.n, walk.theorem.kernel
    total, size = f_sums(walk)
    span = exact_span(walk)
    h, exact_h = walk.iv.width / n, span / n
    low = check.down(quotient(walk.span[0], n, DOWN), exact_h)
    high = check.up(quotient(walk.span[1], n, UP), exact_h)
    exact_error = exact_h * (Exact.spread * Fraction(size) + U * abs(Fraction(total)))
    error = check.up(product(check.up(sum_up(
        check.up(product(certifier.SPREAD, size, UP), Exact.spread * Fraction(size))
        + check.up(product(abs(total), 2.0 ** -53, UP), U * abs(Fraction(total)))),
        exact_error / exact_h), high, UP), exact_error)
    # (nearest, lower and upper bound of the magnitude, its exact value, k, negative)
    t = Fraction(total)
    terms = [(total, abs(total), abs(total), abs(t), 1, total < 0)]
    if walk.theorem.bracketed:
        trapezoid, midpoint = walk._sides()
        sides, half = trapezoid + midpoint, 2 * denominator
        exact_sides = abs(Fraction(trapezoid) + Fraction(midpoint))
        c = Fraction(abs(numerator), half)
        terms.append((numerator / half * sides,
                      check.down(product(check.down(quotient(abs(numerator), half, DOWN), c),
                                         check.down(sum_down(abs(sides)), exact_sides), DOWN),
                                 c * exact_sides),
                      check.up(product(check.up(quotient(abs(numerator), half, UP), c),
                                       check.up(sum_up(abs(sides)), exact_sides), UP),
                               c * exact_sides),
                      c * exact_sides, power, (numerator < 0) != (sides < 0)))
    if walk.theorem is CertTheorem.CORRECTED:
        left, right = walk.fn.d1(walk.iv.a), walk.fn.d1(walk.iv.b)
        ends, gap = math.fsum((abs(left), abs(right))), right - left
        exact_gap = abs(Fraction(right) - Fraction(left))
        terms.append((gap / 24,
                      check.down(quotient(check.down(sum_down(abs(gap)), exact_gap), 24, DOWN),
                                 exact_gap / 24),
                      check.up(quotient(check.up(sum_up(abs(gap)), exact_gap), 24, UP),
                               exact_gap / 24),
                      exact_gap / 24, 2, gap < 0))
        exact_ends = abs(Fraction(left)) + abs(Fraction(right))
        share = check.up(quotient(check.up(product(certifier.SHARE,
                                                   check.up(sum_up(ends), exact_ends), UP),
                                           Exact.share * exact_ends), 24, UP),
                         Exact.share * exact_ends / 24)
        corrected = Exact.share * exact_ends / 24 * exact_h ** 2
        exact_error += corrected
        error = check.up(sum_up(error + check.up(product(check.up(
            product(share, high, UP), corrected / exact_h), high, UP), corrected)), exact_error)
    nearest, lows, highs, exact = [], [], [], 0
    for value, below, above, magnitude, k, negative in terms:
        for _ in range(k):
            magnitude *= exact_h
            value = value * h
            below = check.down(product(below, low, DOWN), magnitude)
            above = check.up(product(above, high, UP), magnitude)
        nearest.append(value)
        lows.append(-above if negative else below)
        highs.append(-below if negative else above)
        exact += -magnitude if negative else magnitude
    estimate = math.fsum(nearest)
    below, above = math.fsum(lows), math.fsum(highs)
    if len(terms) > 1:
        below, above = sum_down(below), sum_up(above)
    check.down(below, exact)
    check.up(above, exact)
    assert (exact, exact_error) == reference_estimate(walk)
    distance = max(Fraction(above) - Fraction(estimate), Fraction(estimate) - Fraction(below))
    distance = check.up(sum_up(max(above - estimate, estimate - below)), distance)
    rounding = check.up(sum_up(error + distance), abs(Fraction(estimate) - exact) + exact_error)
    return estimate, rounding


class TestOpByOp:
    """Each float operation of ``_Walk.truncation``, ``_Walk.floor`` and
    ``_Walk.certificate``, and of the walk's ``span``, ``part`` and ``below``,
    bounds its exact value on the stated side, and the walk computes exactly
    these operations: a step left out would leave the final bound on the
    right side of the exact one most of the time, but not its bits."""

    @pytest.mark.parametrize("start", [1, 3, 255])
    @pytest.mark.parametrize("theorem", list(CertTheorem))
    def test_each_operation_bounds_its_exact_value(self, by_id, theorem, start):
        steps = 0
        for fid, iv in BOUND_REQUESTS:
            walk = certifier._Walk(by_id[fid], iv, theorem, start)
            for _ in range(4):
                check = Replay((fid, iv, walk.n))
                truncation = walk.truncation()
                assert truncation == replay_truncation(walk, check), check.where
                assert walk.floor() == replay_floor(walk, check), check.where
                if truncation < math.inf:
                    cert = walk.certificate(truncation)
                    replayed = replay_certificate(walk, check)
                    assert (cert.estimate, cert.rounding_radius) == replayed, check.where
                    rounding = cert.rounding_radius
                    assert cert.error_radius == check.up(
                        sum_up(truncation + rounding), Fraction(truncation) + Fraction(rounding))
                steps += check.steps
                walk.double()
        assert steps > 0

    @pytest.mark.parametrize("start", [1, 3, 255])
    @pytest.mark.parametrize("theorem", list(CertTheorem))
    def test_rounding_part_covers_the_exact_estimate(self, catalog, theorem, start):
        # |E - the exact estimate| plus the exact error bound of the f (and
        # f') reads and of the sums is at most the printed rounding part
        for fn in catalog:
            walk = certifier._Walk(fn, fn.window, theorem, start)
            cert = walk.certificate(walk.truncation())
            exact, error = reference_estimate(walk)
            assert abs(Fraction(cert.estimate) - exact) + error <= Fraction(cert.rounding_radius), (
                fn.id, start)


#: sha256 of the records of ``test_pinned_outcomes_and_evaluations`` (with
#: glibc 2.36's libm, as the `hh certify` digests), restated when the
#: certificate moved to float bounds: every n, theorem, refusal and count
#: stayed, and only estimates and rounding parts moved (see CHANGES.md)
OUTCOMES_DIGEST = "f9e59f31629b233496ebee41981e6f86b89f0222c5420b8fac2fb08b73b96257"


def test_pinned_outcomes_and_evaluations(catalog, by_id, monkeypatch):
    """Every rule on every catalog window and exp over [0, 700], at five
    tolerances: n, theorem, the estimate and the rounding part (or the
    exception's type) and the f, f', f'' and f'''' evaluation counts."""
    # a lower cap keeps the searches that no floor stops short
    monkeypatch.setattr(certifier, "MAX_SUBINTERVALS", 1 << 12)
    requests = [(fn, fn.window) for fn in catalog] + [(by_id["exp"], Interval(0.0, 700.0))]
    records = []
    for theorem in CertTheorem:
        for tol in (1e300, 1e-4, 1e-8, 1e-12, 1e-300):
            for fn, iv in requests:
                counted_fn, calls = counted(fn, "f", "d1", "d2", "d4")
                try:
                    res = refine_to_tolerance(counted_fn, iv, tol, theorem)
                    outcome = (res.subintervals, res.theorem_used.value, res.estimate.hex(),
                               res.rounding_radius.hex())
                except (ConvergenceError, EvaluationError, HypothesisError) as exc:
                    outcome = type(exc).__name__
                records.append((fn.id, iv.a, iv.b, theorem.value, tol, outcome,
                                sorted(calls.items())))
    assert len(records) == 220
    assert hashlib.sha256(repr(records).encode()).hexdigest() == OUTCOMES_DIGEST
