import pytest

from hhbounds.bounds_convex import (
    baseline_first_derivative,
    bound_convex_holder,
    bound_convex_powermean,
    bound_convex_q1,
)
from hhbounds.bounds_quasiconvex import (
    Monotonicity,
    bound_quasi_holder,
    bound_quasi_monotone,
    bound_quasi_powermean,
    bound_quasi_q1,
)
from hhbounds.core import (
    ConjugatePair,
    DomainError,
    HypothesisError,
    Interval,
    TheoremId,
    polynomial,
)
from hhbounds.oracle import midpoint_gap
from hhbounds.suites import BOUND_ROWS, bound_suite, build_bound_report, monotone_direction

PQ2 = ConjugatePair(2.0, 2.0)
UNIT = Interval(0.0, 1.0)
ONE_TWO = Interval(1.0, 2.0)
ONE_FOUR = Interval(1.0, 4.0)

# (theorem, function, interval, bound from exact endpoint values, exponent field)
# x2: |f''| = 2, |f'| = 2|x|; inv_x: |f''| = 2/x^3; x_5_2: |f''| = 3.75 sqrt(x)
TABLE_CASES = [
    ("convex_q1", "x2", UNIT, bound_convex_q1(UNIT, 2.0, 2.0), None),
    ("convex_holder", "inv_x", ONE_TWO, bound_convex_holder(ONE_TWO, 2.0, 0.25, PQ2), PQ2),
    ("convex_pm", "inv_x", ONE_TWO, bound_convex_powermean(ONE_TWO, 2.0, 0.25, 2.0), 2.0),
    ("baseline_q1", "x2", UNIT, baseline_first_derivative(UNIT, 0.0, 2.0, 1.0), None),
    ("baseline_pm", "x2", UNIT, baseline_first_derivative(UNIT, 0.0, 2.0, 2.0), 2.0),
    ("quasi_q1", "x_5_2", ONE_FOUR, bound_quasi_q1(ONE_FOUR, 3.75, 7.5), None),
    ("quasi_holder", "x_5_2", ONE_FOUR, bound_quasi_holder(ONE_FOUR, 3.75, 7.5, PQ2), PQ2),
    ("quasi_pm", "x_5_2", ONE_FOUR, bound_quasi_powermean(ONE_FOUR, 3.75, 7.5, 2.0), 2.0),
    ("quasi_monotone", "x_5_2", ONE_FOUR,
     bound_quasi_monotone(ONE_FOUR, 3.75, 7.5, Monotonicity.INCREASING), None),
    ("quasi_monotone", "inv_x", ONE_TWO,
     bound_quasi_monotone(ONE_TWO, 2.0, 0.25, Monotonicity.DECREASING), None),
]


class TestBoundTable:
    def test_every_bound_theorem_has_a_case(self):
        assert {TheoremId(case[0]) for case in TABLE_CASES} == set(BOUND_ROWS)

    @pytest.mark.parametrize("theorem,fid,iv,expected,exponent", TABLE_CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in TABLE_CASES])
    def test_report_is_the_formula_on_exact_endpoint_values(
            self, by_id, theorem, fid, iv, expected, exponent):
        fn = by_id[fid]
        report = build_bound_report(fn, iv, theorem)
        assert report.theorem_id is TheoremId(theorem)
        assert report.bound == expected
        assert report.exponent == exponent
        assert report.true_gap == midpoint_gap(fn, iv)
        assert report.valid

    @pytest.mark.parametrize("fid,a,b,theorem", [
        ("x_5_2", 1.0, 2.0, "convex_q1"),       # |f''| = 3.75 sqrt(x) is concave
        ("sin", 0.0, 3.14159, "quasi_q1"),      # |f''| = sin peaks inside
        ("sin", 0.0, 3.14159, "baseline_q1"),   # |f'| = |cos| peaks at both ends
        ("x4", -1.0, 1.0, "quasi_monotone"),    # |f''| = 12 x^2 falls, then rises
    ])
    def test_refuses_when_the_hypothesis_fails(self, by_id, fid, a, b, theorem):
        with pytest.raises(HypothesisError, match="class check failed"):
            build_bound_report(by_id[fid], Interval(a, b), theorem)

    @pytest.mark.parametrize("theorem", ["prop_identric", "no_such_theorem"])
    def test_rejects_names_outside_the_table(self, by_id, theorem):
        with pytest.raises(DomainError):
            build_bound_report(by_id["x2"], UNIT, theorem)


class TestSweepGating:
    def test_convex_sweep_leaves_out_functions_outside_the_class(self):
        functions = {line.function for line in bound_suite("convex", 5, seed=3)}
        assert "x_5_2" not in functions and "sin" not in functions
        assert {"x2", "x3", "inv_x", "neg_ln", "exp"} <= functions

    def test_baselines_need_convex_first_derivative(self):
        # |f''| = 6|x| is convex on [-2, 2]; |f'| = |3x^2 - 3| is not
        fn = polynomial([0.0, -3.0, 0.0, 1.0], id="w", window=Interval(-2.0, 2.0))
        theorems = {line.theorem for line in bound_suite("convex", 5, seed=3, catalog=[fn])}
        assert theorems == {"convex_q1", "convex_holder", "convex_pm"}

    def test_monotone_lines_only_where_sampled_monotone(self, by_id):
        lines = bound_suite("quasiconvex", 20, seed=3)
        cases: dict = {}
        for line in lines:
            cases.setdefault((line.function, line.interval), {})[line.theorem] = line
        mixed = 0
        for (fid, iv), by_theorem in cases.items():
            assert {"quasi_q1", "quasi_holder", "quasi_pm"} <= set(by_theorem)
            direction = monotone_direction(by_id[fid], iv)
            if direction is None:
                mixed += 1
                assert "quasi_monotone" not in by_theorem, (fid, iv)
            else:
                d2 = by_id[fid].d2
                assert by_theorem["quasi_monotone"].bound == bound_quasi_monotone(
                    iv, abs(d2(iv.a)), abs(d2(iv.b)), direction)
        assert mixed > 0
