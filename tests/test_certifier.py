import dataclasses
import math
from fractions import Fraction
from itertools import chain

import pytest

from hhbounds import certifier, core, oracle
from hhbounds.certifier import (
    CHUNK,
    MAX_SUBINTERVALS,
    CertTheorem,
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


def cli_theorem(fn, iv):
    """The paper's rule for fn on iv, in the order `hh certify` tries them
    after FEJER; None if neither holds."""
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
            theorem = cli_theorem(fn, fn.window)
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

    @pytest.mark.usefixtures("class_checks_pass")
    def test_quasi_searches_to_the_cap_on_d2_alone(self, by_id, monkeypatch):
        # no floor exists without convexity; a lower cap keeps the full search short
        monkeypatch.setattr(certifier, "MAX_SUBINTERVALS", 1 << 10)
        fn, calls = counted(by_id["x2"])
        with pytest.raises(ConvergenceError, match=f"at n={1 << 10}"):
            refine_to_tolerance(fn, UNIT, 1e-15, CertTheorem.QUASI_Q1)
        assert calls == {"f": 0, "d2": (1 << 10) + 1}


class TestAgainstOracle:
    def test_catalog_windows_enclose_oracle_value(self, catalog):
        for fn in catalog:
            theorem = cli_theorem(fn, fn.window)
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
        res = refine_to_tolerance(fn, iv, tol, cli_theorem(fn, iv))
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
        else:
            assert walk.least == min(g)
        for computed, terms in pairs:
            reference = math.fsum(terms)
            assert abs(computed - reference) <= 2.0 ** -53 * reference

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
        assert cli_theorem(fn, QUASI_IV) is CertTheorem.QUASI_Q1
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
    def test_peano_kernel_in_fractions(self):
        kernel = certifier._KERNELS[CertTheorem.CORRECTED]
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
        share = certifier._model().share
        for n in (1, 4):
            res = integrate_certified(fn, UNIT, n, CertTheorem.CORRECTED)
            assert res.estimate == 0.0 == res.truncation_radius
            assert res.rounding_radius == certifier._up(
                Fraction(1, 24 * n * n) * share * 2 * 10 ** 6)

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

    @pytest.mark.parametrize("theorem", [CertTheorem.CORRECTED, CertTheorem.FEJER])
    # x4 and x5 (FEJER: x2, x3) have T = M, so the half-width is the slack
    # alone and the floor is within a few u of it at the cap
    @pytest.mark.parametrize("fid, a, b", [("exp", -1.0, 1.0), ("inv_x", 1.0, 2.0),
                                           ("exp", 0.0, 700.0), ("x4", -1.5, 1.5),
                                           ("x5", 0.5, 1.5), ("x3", 0.0, 2.0)])
    def test_floor_bounds_every_finer_truncation_part(self, by_id, monkeypatch,
                                                      theorem, fid, a, b):
        monkeypatch.setattr(certifier, "MAX_SUBINTERVALS", 1 << 8)
        walk = certifier._Walk(by_id[fid], Interval(a, b), theorem, 1)
        floors, parts = [], []
        while True:
            floors.append(walk.floor())
            parts.append(walk.truncation())
            if walk.n == 1 << 8:
                break
            walk.double()
        assert floors == sorted(floors)
        # a part past the float range reads +inf, above every floor
        assert all(floor <= Fraction(part) for level, floor in enumerate(floors)
                   for part in parts[level:] if part < math.inf)
