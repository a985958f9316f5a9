"""Checks of the benchmark's exact references and output checkers.

    python3 -m pytest hhbench/test_reference.py

The closed forms are compared with mpmath.quad and mpmath.diff, and each
checker is fed a deliberately wrong output to confirm that the operation
is counted as failed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from mpmath import mp, mpf

import checks
import reference as ref
import run
import tracing
import workloads as wl

INTERVALS = {
    "x2": [(-1.5, 1.5), (0.2, 0.9)], "x3": [(0.0, 2.0), (0.3, 1.1)],
    "x4": [(-1.5, 1.5), (-1.0, -0.2)], "x5": [(-1.5, 1.5), (0.5, 1.5)],
    "inv_x": [(0.25, 4.0), (1.0, 2.0)], "neg_ln": [(0.25, 4.0), (0.5, 3.0)],
    "exp": [(-1.0, 1.0), (0.1, 0.7)], "affine": [(0.0, 2.0), (0.5, 1.0)],
    "x_5_2": [(0.25, 4.0), (1.0, 2.0)], "sin": [(0.0, 3.0), (0.2, 1.3)],
}


@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(ref.DPS):
        yield


def _quad(g, a, b):
    with mp.workdps(30):
        return mp.quad(g, [mpf(a), mpf(b)])


@pytest.mark.parametrize("fid", sorted(ref.CATALOG))
def test_antiderivative_matches_quad(fid):
    f = ref.CATALOG[fid][0]
    for a, b in INTERVALS[fid]:
        assert abs(ref.integral(fid, a, b) - _quad(f, a, b)) < mpf(10) ** -25


@pytest.mark.parametrize("fid", sorted(ref.CATALOG))
def test_derivatives_match_numerical_differentiation(fid):
    f = ref.CATALOG[fid][0]
    for x in (0.3, 0.8, 1.7):
        with mp.workdps(30):
            assert abs(mp.diff(f, mpf(x), 1) - ref.CATALOG[fid][2](mpf(x))) < mpf(10) ** -20
            assert abs(mp.diff(f, mpf(x), 2) - ref.CATALOG[fid][3](mpf(x))) < mpf(10) ** -20


def test_signed_gap_is_mean_minus_midpoint_value():
    a, b = 0.3, 2.2
    mean = _quad(ref.CATALOG["exp"][0], a, b) / (mpf(b) - mpf(a))
    assert abs(ref.signed_gap("exp", a, b) - (mean - mp.exp((mpf(a) + mpf(b)) / 2))) < 1e-25
    assert abs(ref.signed_gap("x2", 0.0, 1.0) - mpf(1) / 12) < 1e-30


@pytest.mark.parametrize("a,b", [(0.5, 0.9), (1.0, 2.0), (0.3, 8.0)])
def test_means_match_their_integral_definitions(a, b):
    w = mpf(b) - mpf(a)

    def mean_of(g):
        return _quad(g, a, b) / w

    assert abs(ref.logarithmic(a, b) - 1 / mean_of(lambda x: 1 / x)) < 1e-25
    assert abs(ref.identric(a, b) - mp.exp(mean_of(mp.log))) < 1e-25
    for p in (-5, -2, 0.5, 3, 10):
        exact = mean_of(lambda x: x ** p) ** (mpf(1) / p)
        assert abs(ref.p_logarithmic(a, b, p) - exact) < 1e-20 * exact
    assert ref.harmonic(a, b) <= ref.geometric(a, b) <= ref.logarithmic(a, b) \
        <= ref.identric(a, b) <= ref.arithmetic(a, b)
    for n in (-4, 3, 6):
        gap = abs(mean_of(lambda x: x ** n) - ref.arithmetic(a, b) ** n)
        assert abs(ref.means_gap(f"x^{n}", a, b) - gap) < 1e-20 * max(1, gap)
    assert abs(ref.means_gap("1/x", a, b) - abs(mean_of(lambda x: 1 / x)
                                                - 1 / ref.arithmetic(a, b))) < 1e-25
    assert abs(ref.means_gap("-ln(x)", a, b)
               - (mp.log(ref.arithmetic(a, b)) - mean_of(mp.log))) < 1e-25


def test_q1_formulas_are_sharp_for_linear_second_derivative():
    # x^3 on [1, 2]: the q = 1 convex bound equals the gap 0.375
    assert abs(ref.means_family_q1_bound("prop_monomial_q1", "x^3", 1.0, 2.0)
               - mpf(3) / 8) < 1e-30
    assert abs(ref.family_q1_bound("convex_q1", "x2", 0.0, 1.0) - mpf(1) / 12) < 1e-30
    assert abs(ref.family_q1_bound("quasi_q1", "x3", 0.0, 2.0) - 2) < 1e-30
    assert abs(ref.family_q1_bound("baseline_q1", "x2", 0.0, 1.0) - mpf(1) / 4) < 1e-30


def test_class_predicates_follow_the_closed_forms():
    assert not ref.hypothesis_holds("convex_q1", "x_5_2", 1.0, 2.0)
    assert ref.hypothesis_holds("quasi_q1", "x_5_2", 1.0, 2.0)
    assert not ref.hypothesis_holds("quasi_q1", "sin", 1.0, 2.0)
    assert ref.hypothesis_holds("quasi_q1", "sin", 0.2, 1.3)
    assert not ref.hypothesis_holds("quasi_monotone", "x4", -1.0, 0.5)
    assert ref.hypothesis_holds("quasi_monotone", "x4", 0.0, 0.5)
    assert not ref.hypothesis_holds("baseline_q1", "sin", 0.2, 1.3)


# --- checkers -----------------------------------------------------------------

def _line(**changes):
    line = {"suite": "convex", "function": "x2", "interval": [0.0, 1.0],
            "theorem": "convex_q1", "bound": 1 / 12, "gap": 1 / 12, "slack": 0.0,
            "pass": True}
    line.update(changes)
    return line


def test_verify_line_checker_accepts_exact_values_and_catches_wrong_ones():
    assert checks.check_verify_line(_line()) == []
    assert checks.check_verify_line(_line(gap=1 / 12 + 1e-6))
    assert checks.check_verify_line(_line(bound=1 / 12 * (1 + 1e-9)))
    assert checks.check_verify_line(_line(theorem="convex_pm", bound=1 / 12 * (1 - 1e-9)))
    assert checks.check_verify_line(_line(theorem="convex_pm", bound=0.1)) == []
    assert checks.check_verify_line(_line(**{"pass": False}))
    identity = _line(suite="identity", theorem="identity")
    assert checks.check_verify_line(identity) == []
    assert checks.check_verify_line(dict(identity, bound=1 / 12 + 1e-6))
    means = {"suite": "means", "function": "x^3", "interval": [1.0, 2.0],
             "theorem": "prop_monomial_q1", "bound": 0.375, "gap": 0.375,
             "slack": 0.0, "pass": True}
    assert checks.check_verify_line(means) == []
    assert checks.check_verify_line(dict(means, gap=0.375 + 1e-6))
    assert checks.check_verify_line(dict(means, bound=0.375 - 1e-6))
    chain = {"suite": "means", "function": "pair", "interval": [1.0, 2.0],
             "theorem": "means_chain", "bound": 1.5, "gap": 4 / 3, "slack": 1.5 - 4 / 3,
             "pass": True}
    assert checks.check_verify_line(chain) == []
    assert checks.check_verify_line(dict(chain, gap=4 / 3 + 1e-9))


def test_verify_output_blames_lines_when_the_exit_status_disagrees():
    text = json.dumps(_line()) + "\n"
    assert checks.check_verify_output(text, 0) == [[]]
    assert checks.check_verify_output(text, 1)[0]


def _certificate(**changes):
    # x2 on [0, 1] with n = 4: the estimate 21/64 misses 1/3 by 1/192
    row = {"enclosed": True, "error_radius": 1 / 190, "estimate": 21 / 64,
           "n": 4, "oracle_value": 1 / 3}
    row.update(changes)
    return json.dumps(row) + "\n"


def test_certificate_checker_catches_a_radius_that_misses():
    rung = wl.Rung("x2", "0", "1", "1e-2")
    assert checks.check_certificate(rung, 0, _certificate()) == []
    assert checks.check_certificate(rung, 0, _certificate(error_radius=1 / 200))
    assert checks.check_certificate(wl.Rung("x2", "0", "1", "1e-3"), 0, _certificate())
    assert checks.check_certificate(rung, 1, _certificate())
    assert checks.check_certificate(rung, 0, _certificate(enclosed=False))


def test_query_checker_matches_outcome_to_the_class():
    good = wl.Query("x2", 0.0, 1.0, "convex_q1", None, None)
    report = {"kind": "report", "bound": 1 / 12, "true_gap": 1 / 12, "valid": True}
    assert checks.check_query(good, report) == []
    assert checks.check_query(good, dict(report, true_gap=1 / 12 + 1e-6))
    assert checks.check_query(good, {"kind": "refused"})
    assert checks.check_query(good, {"kind": "error", "type": "DomainError"})
    refused = wl.Query("x_5_2", 1.0, 2.0, "convex_q1", None, None)
    assert checks.check_query(refused, {"kind": "refused"}) == []
    assert checks.check_query(refused, report)


def test_tally_counts_each_failed_operation_of_each_timed_round():
    order = wl.certify_order(1)
    outputs = [[0, _certificate()] if rung == wl.Rung("x2", "0", "1", "1e-6") else
               [0, _certificate(error_radius=0.0)] for rung in order]
    # every rung misses here; only the known failures keep the run correct
    correct, attempted, failed = run.tally(
        "certify_ladder", 1, [{"outputs": outputs, "timed": 3, "untimed": 1}])
    assert (attempted, failed) == (3 * len(order), 3 * len(order))
    assert not correct

    queries = wl.bound_queries(1)
    outcomes = [{"kind": "refused"}] * len(queries)
    correct, attempted, failed = run.tally(
        "bound_queries", 1, [{"outputs": outcomes, "timed": 2, "untimed": 0}])
    expected_reports = sum(ref.hypothesis_holds(q.theorem, q.function, q.a, q.b)
                           for q in queries)
    assert (attempted, failed) == (2 * len(queries), 2 * expected_reports)
    assert not correct



def _ladder_outputs(rung_output):
    """A certify round in which every rung passes but ``rung_output``'s."""
    outputs = []
    for rung in wl.certify_order(1):
        exact = float(ref.integral(rung.function, float(rung.a), float(rung.b)))
        row = {"enclosed": True, "error_radius": float(rung.tol) / 2, "estimate": exact,
               "n": 1024, "oracle_value": exact}
        outputs.append(rung_output.get(rung, [0, json.dumps(row) + "\n"]))
    return outputs


def _rounding_miss(rung, share, rc, **changes):
    exact = float(ref.integral(rung.function, float(rung.a), float(rung.b)))
    radius = float(rung.tol) * 0.9
    row = {"enclosed": rc == 0, "error_radius": radius, "estimate": exact + radius * share,
           "n": 1024, "oracle_value": exact}
    row.update(changes)
    return [rc, json.dumps(row) + "\n"]


def test_tally_excuses_a_known_failure_only_for_the_known_rounding_miss():
    exits_1 = wl.Rung("inv_x", "1", "2", "1e-12")
    exits_0 = wl.Rung("x4", "-1.5", "1.5", "1e-8")
    assert wl.EXPECTED_FAILURES[exits_1] == 1 and wl.EXPECTED_FAILURES[exits_0] == 0

    def tally(rung_output):
        return run.tally("certify_ladder", 1,
                         [{"outputs": _ladder_outputs(rung_output), "timed": 2, "untimed": 0}])

    n = 2 * len(wl.LADDER)
    assert tally({}) == (True, n, 0)
    known = {exits_1: _rounding_miss(exits_1, 1.03, 1), exits_0: _rounding_miss(exits_0, 1.001, 0)}
    assert tally(known) == (True, n, 4)
    for wrong in (_rounding_miss(exits_1, 1.2, 1),            # miss beyond rounding
                  _rounding_miss(exits_1, 1e6, 1),            # gross miss
                  _rounding_miss(exits_1, 1.03, 0),           # exit 0 while not enclosing
                  _rounding_miss(exits_1, 1.03, 1, enclosed=True),
                  _rounding_miss(exits_1, 1.03, 1, error_radius=2e-12),  # above tolerance
                  [2, ""]):                                    # crash, no output row
        assert tally({**known, exits_1: wrong}) == (False, n, 4)
    # a rung that is not a known failure is never excused
    x2 = wl.Rung("x2", "0", "1", "1e-6")
    assert tally({x2: _rounding_miss(x2, 1.001, 0)}) == (False, n, 2)

# --- tracing ----------------------------------------------------------------------

def test_tracer_spans_one_query_and_reports_a_vanished_name_as_unmeasured(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "src"))
    monkeypatch.setitem(tracing.LAYERS, "bounds",
                        (("hhbounds.bounds_convex", "bound_that_was_removed"),))
    import hhbounds.core as core
    import hhbounds.suites as suites

    counter = tracing.Counter()
    tracer = tracing.Tracer(counter)
    original = suites.build_bound_report
    with tracing.patched(tracing.counting_catalog(core, counter)), tracer.active():
        fn = core.catalog_by_id()["x2"]
        suites.build_bound_report(fn, core.Interval(0.0, 1.0), "convex_q1")
    assert suites.build_bound_report is original
    metrics = tracing.summarize(tracer, tracer.spans)
    assert tracer.unmeasured == ["bounds"]
    assert metrics["bounds.calls"] is None and metrics["bounds.self_s"] is None
    assert metrics["oracle.integrate.calls"] == 1
    assert metrics["oracle.integrate.evals"] > 0
    assert metrics["oracle.class_check.calls"] == 1
    # 64 grid values, then one midpoint value per grid pair
    assert metrics["oracle.class_check.evals"] == 64 + 64 * 63 // 2
    assert metrics["oracle.class_check.refuted"] == 0
    assert metrics["suites.self_s"] > 0
    assert counter.n > 64 + 64 * 63 // 2
