import dataclasses

import pytest

from hhbounds import suites
from hhbounds.bounds_convex import (
    baseline_first_derivative,
    bound_convex_holder,
    bound_convex_powermean,
    bound_convex_q1,
)
from hhbounds.bounds_quasiconvex import (
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
from hhbounds.oracle import CONVEX_D1, MONOTONE_D2, midpoint_gap
from hhbounds.suites import BOUND_ROWS, bound_suite, build_bound_report

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
    ("quasi_monotone", "x_5_2", ONE_FOUR, bound_quasi_monotone(ONE_FOUR, 3.75, 7.5), None),
    ("quasi_monotone", "inv_x", ONE_TWO, bound_quasi_monotone(ONE_TWO, 2.0, 0.25), None),
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

    def test_outside_domain_refused_before_any_evaluation(self, by_id):
        calls = []

        def count(ev):
            def counted(x):
                calls.append(x)
                return ev(x)
            return counted

        inv_x = by_id["inv_x"]
        fn = dataclasses.replace(inv_x, f=count(inv_x.f), d1=count(inv_x.d1),
                                 d2=count(inv_x.d2))
        for theorem in BOUND_ROWS:
            with pytest.raises(DomainError, match=r"\[0.0, 1.0\] is outside the domain"):
                build_bound_report(fn, Interval(0.0, 1.0), theorem.value)
        assert calls == []

    def test_monotone_query_samples_its_class_once(self, by_id):
        # 65 f'' evaluations for the monotone sample, 2 for the endpoint values
        calls = []
        x3 = by_id["x3"]

        def d2(x):
            calls.append(x)
            return x3.d2(x)

        build_bound_report(dataclasses.replace(x3, d2=d2), ONE_TWO, "quasi_monotone")
        assert len(calls) == 67

    @pytest.mark.parametrize("theorem", ["prop_identric", "no_such_theorem"])
    def test_rejects_names_outside_the_table(self, by_id, theorem):
        with pytest.raises(DomainError):
            build_bound_report(by_id["x2"], UNIT, theorem)


class TestSweepGating:
    def test_convex_sweep_leaves_out_functions_outside_the_class(self):
        functions = {line.function for line in bound_suite("convex", 5, seed=3)}
        assert "x_5_2" not in functions and "sin" not in functions
        assert {"x2", "x3", "inv_x", "neg_ln", "exp"} <= functions

    def test_baselines_need_convex_first_derivative(self, monkeypatch):
        # |f''| = 6|x| is convex on [-2, 2]; |f'| = |3x^2 - 3| is not, but it
        # is on intervals that keep out of (-1, 1): the baselines run there
        fn = polynomial([0.0, -3.0, 0.0, 1.0], id="w", window=Interval(-2.0, 2.0))
        monkeypatch.setattr(suites, "builtin_catalog", lambda: [fn])
        cases: dict = {}
        for line in bound_suite("convex", 40, seed=3):
            cases.setdefault(line.interval, set()).add(line.theorem)
        kinds = set()
        for iv, theorems in cases.items():
            convex_d1 = CONVEX_D1.check(fn, iv)
            kinds.add(convex_d1)
            baselines = {"baseline_q1", "baseline_pm"} if convex_d1 else set()
            assert theorems == {"convex_q1", "convex_holder", "convex_pm"} | baselines, iv
        assert len(cases) == 41
        assert kinds == {True, False}

    def test_monotone_lines_only_where_sampled_monotone(self, by_id):
        lines = bound_suite("quasiconvex", 20, seed=3)
        cases: dict = {}
        for line in lines:
            cases.setdefault((line.function, line.interval), {})[line.theorem] = line
        mixed = 0
        for (fid, iv), by_theorem in cases.items():
            assert {"quasi_q1", "quasi_holder", "quasi_pm"} <= set(by_theorem)
            if MONOTONE_D2.check(by_id[fid], iv):
                d2 = by_id[fid].d2
                assert by_theorem["quasi_monotone"].bound == bound_quasi_monotone(
                    iv, abs(d2(iv.a)), abs(d2(iv.b)))
            else:
                mixed += 1
                assert "quasi_monotone" not in by_theorem, (fid, iv)
        assert mixed > 0
