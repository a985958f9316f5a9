import dataclasses
import hashlib
import json
import math

import pytest

from hhbounds import cli, suites
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
from hhbounds.suites import (
    BOUND_ROWS,
    BOUND_THEOREMS,
    SWEEPS,
    SUITES,
    Exponent,
    build_bound_report,
    run_suite,
)

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

    @pytest.mark.parametrize("theorem", [tid.value for tid in BOUND_ROWS])
    def test_a_nan_derivative_at_an_end_refuses_the_class(self, by_id, theorem):
        # x^2 with the derivative the theorem's class reads NaN at x = 0,
        # where its bound reads the endpoint magnitude: a report would carry
        # a NaN bound
        x2 = by_id["x2"]
        key = BOUND_ROWS[TheoremId(theorem)].hypothesis.derivative
        ev = getattr(x2, key)

        def nan_at_a(x):
            return math.nan if x == 0.0 else ev(x)

        build_bound_report(x2, UNIT, theorem)
        with pytest.raises(HypothesisError, match="class check failed"):
            build_bound_report(dataclasses.replace(x2, **{key: nan_at_a}), UNIT, theorem)

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

    @pytest.mark.parametrize("row", [row for rows in SWEEPS.values() for row in rows],
                             ids=lambda row: row.theorem.value)
    @pytest.mark.parametrize("fid, a, b", [("x3", 1.0, 2.0), ("sin", 0.0, 3.0)],
                             ids=["class-holds", "class-fails"])
    def test_bad_exponent_refused_before_any_evaluation(self, by_id, row, fid, a, b):
        calls = []

        def count(ev):
            def counted(x):
                calls.append(x)
                return ev(x)
            return counted

        base = by_id[fid]
        fn = dataclasses.replace(base, f=count(base.f), d1=count(base.d1), d2=count(base.d2))
        bad = [{"q": 0.5}, {"q": math.nan}, {"p": 0.5}, {"p": 2.0, "q": 3.0}]
        bad += {Exponent.NONE: [{"q": 3.0}, {"p": 7.0}, {"q": math.inf}],
                Exponent.Q: [{"p": 7.0}, {"p": 2.0, "q": 2.0}],
                Exponent.PAIR: [{"q": math.inf}, {"p": math.inf}]}[row.exponent]
        for exponents in bad:
            # the name and the member are refused alike, in the row's name
            refusals = []
            for theorem in (row.theorem.value, row.theorem):
                with pytest.raises(DomainError) as info:
                    build_bound_report(fn, Interval(a, b), theorem, **exponents)
                refusals.append(str(info.value))
            assert refusals[0] == refusals[1]
            assert "TheoremId" not in refusals[1]
            if row.exponent is Exponent.NONE and "q" in exponents:
                assert refusals[1] == f"{row.theorem.value!r} takes no exponent; drop q and p"
        assert calls == []

    def test_monotone_query_samples_its_class_once(self, by_id):
        # 64 f'' evaluations for the monotone sample on the class grid, 2 for
        # the endpoint values
        calls = []
        x3 = by_id["x3"]

        def d2(x):
            calls.append(x)
            return x3.d2(x)

        build_bound_report(dataclasses.replace(x3, d2=d2), ONE_TWO, "quasi_monotone")
        assert len(calls) == 66

    @pytest.mark.parametrize("theorem", ["prop_identric", "no_such_theorem"])
    def test_rejects_names_outside_the_table(self, by_id, theorem):
        # a theorem of the means suite and a name of none: one lookup and
        # one message that lists the bound theorems, before any evaluation
        def unread(x):
            raise AssertionError(f"evaluated at {x}")

        fn = dataclasses.replace(by_id["x2"], f=unread, d1=unread, d2=unread)
        with pytest.raises(DomainError) as caught:
            build_bound_report(fn, UNIT, theorem)
        assert str(caught.value) == (f"unknown bound theorem {theorem!r}; bound theorems: "
                                     + ", ".join(BOUND_THEOREMS))


@pytest.mark.parametrize("kind, q, p, expected", [
    (Exponent.NONE, None, None, None),
    (Exponent.NONE, 2.0, None, DomainError),
    (Exponent.NONE, None, 2.0, DomainError),
    (Exponent.NONE, 2.0, 2.0, DomainError),
    (Exponent.Q, None, None, 2.0),
    (Exponent.Q, 3.0, None, 3.0),
    (Exponent.Q, math.inf, None, math.inf),
    (Exponent.Q, None, 3.0, DomainError),
    (Exponent.Q, 3.0, 1.5, DomainError),
    (Exponent.PAIR, None, None, ConjugatePair(2.0, 2.0)),
    (Exponent.PAIR, 4.0, None, ConjugatePair(4.0 / 3.0, 4.0)),
    (Exponent.PAIR, None, 3.0, ConjugatePair(3.0, 1.5)),
    (Exponent.PAIR, 1.5, 3.0, ConjugatePair(3.0, 1.5)),
    (Exponent.PAIR, 3.0, 3.0, DomainError),
])
def test_exponent_resolve(kind, q, p, expected):
    if expected is DomainError:
        with pytest.raises(DomainError):
            kind.resolve("t", q, p)
    else:
        assert kind.resolve("t", q, p) == expected


class TestSweepGating:
    def test_convex_sweep_leaves_out_functions_outside_the_class(self):
        functions = {line["function"] for line in run_suite("convex", 5, 3)}
        assert "x_5_2" not in functions and "sin" not in functions
        assert {"x2", "x3", "inv_x", "neg_ln", "exp"} <= functions

    def test_baselines_need_convex_first_derivative(self, monkeypatch):
        # |f''| = 6|x| is convex on [-2, 2]; |f'| = |3x^2 - 3| is not, but it
        # is on intervals that keep out of (-1, 1): the baselines run there
        fn = polynomial([0.0, -3.0, 0.0, 1.0], id="w", window=Interval(-2.0, 2.0))
        monkeypatch.setattr(suites, "builtin_catalog", lambda: [fn])
        cases: dict = {}
        for line in run_suite("convex", 40, 3):
            cases.setdefault(Interval(*line["interval"]), set()).add(line["theorem"])
        kinds = set()
        for iv, theorems in cases.items():
            convex_d1 = CONVEX_D1.check(fn, iv)
            kinds.add(convex_d1)
            baselines = {"baseline_q1", "baseline_pm"} if convex_d1 else set()
            assert theorems == {"convex_q1", "convex_holder", "convex_pm"} | baselines, iv
        assert len(cases) == 41
        assert kinds == {True, False}

    def test_monotone_lines_only_where_sampled_monotone(self, by_id):
        lines = run_suite("quasiconvex", 20, 3)
        cases: dict = {}
        for line in lines:
            key = (line["function"], Interval(*line["interval"]))
            cases.setdefault(key, {})[line["theorem"]] = line
        mixed = 0
        for (fid, iv), by_theorem in cases.items():
            assert {"quasi_q1", "quasi_holder", "quasi_pm"} <= set(by_theorem)
            if MONOTONE_D2.check(by_id[fid], iv):
                d2 = by_id[fid].d2
                assert by_theorem["quasi_monotone"]["bound"] == bound_quasi_monotone(
                    iv, abs(d2(iv.a)), abs(d2(iv.b)))
            else:
                mixed += 1
                assert "quasi_monotone" not in by_theorem, (fid, iv)
        assert mixed > 0


#: sha256 of the bytes `hh verify --suite all --cases 100 --seed <seed>`
#: prints, taken with glibc 2.36's libm; another libm may round exp, log or
#: pow differently in the last bit and so change them without a change in
#: this program
SWEEP_DIGESTS = [
    pytest.param(7, "d022348738d572bf417d54acac91fcce2cd053368467536bb5389ce32560a578",
                 id="seed7"),
    pytest.param(1, "588c44807b81016d7926f47aa3ef0d148767b0d03b462416905f7f54d5dec0d7",
                 id="seed1"),
]


@pytest.mark.parametrize("seed, digest", SWEEP_DIGESTS)
def test_seeded_sweep_bytes(seed, digest):
    """The sweep's rows, each as ``json.dumps(line, sort_keys=True)``."""
    text = "".join(json.dumps(line, sort_keys=True) + "\n"
                   for line in run_suite("all", 100, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed, digest", SWEEP_DIGESTS)
def test_seeded_cli_bytes(seed, digest, capsys):
    """The same bytes from the command itself, whose sweep lines are
    rendered from one format string (``cli._sweep_json``), not by json."""
    assert cli.main(["verify", "--suite", "all", "--cases", "100", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", list(SUITES))
def test_single_suite_is_its_slice_of_all(name, seed):
    """Each sweep seeds its own generator, so a run of one sweep prints
    the very rows that sweep contributes to ``all``."""
    lines = run_suite("all", 3, seed)
    assert run_suite(name, 3, seed) == [line for line in lines if line["suite"] == name]
