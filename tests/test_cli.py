import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhbounds import certifier, cli, oracle, suites
from hhbounds.core import DomainError, Interval

CMD = [sys.executable, "-m", "hhbounds"]


def run(*args, timeout=None):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def hh(capsys):
    """``run`` in this process, through ``cli.main``: the same exit status,
    stdout and stderr as a fresh `hh` (see
    ``test_parser_is_built_once_and_reused_after_a_usage_error``), with
    argparse's usage error as its exit status 2."""
    def call(*args):
        try:
            rc = cli.main(list(args))
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(list(args), rc, out, err)
    return call


def parse_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


#: what `hh bound` and `hh certify` write to stderr for a name outside the catalog
UNKNOWN_FUNCTION = ("hh: unknown function 'nope'; catalog: affine, exp, inv_x, neg_ln, sin, "
                    "x2, x3, x4, x5, x_5_2\n")


class TestBoundCommand:
    def test_sharp_square_case(self):
        proc = run("bound", "x2", "0", "1", "convex_q1")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert set(row) == {"theorem", "bound", "true_gap", "slack", "valid"}
        assert row["bound"] == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert row["true_gap"] == pytest.approx(1.0 / 12.0, rel=1e-9)
        assert row["valid"] is True

    def test_reciprocal_quasi_case(self, hh):
        proc = hh("bound", "inv_x", "1", "2", "quasi_q1")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["bound"] == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert row["true_gap"] == pytest.approx(0.026480513893278643, rel=1e-8)

    def test_a_bound_past_the_float_range_exits_one(self, capsys):
        # exp over [700, 709]: quasi_q1 takes 81/8 e^709, past the float
        # range, and prints no row; no evaluation overflowed, and stderr
        # does not say one did.  convex_q1 takes the mean of the ends
        assert cli.main(["bound", "exp", "700", "709", "quasi_q1"]) == 1
        assert capsys.readouterr() == (
            "", "hh: the quasi_q1 bound on [700.0, 709.0] is past the float range\n")
        assert cli.main(["bound", "exp", "700", "709", "convex_q1"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["bound"] == pytest.approx(1.387e308, rel=1e-3) and row["valid"] is True

    @pytest.mark.parametrize("args", [("x2", "0", "2e-314", "convex_q1"),
                                      ("exp", "0", "1e-320", "quasi_q1")])
    def test_an_interval_too_narrow_for_the_gap_tolerance_is_answered(self, hh, args):
        # GAP_TOL times these widths underflows to 0; the oracle's
        # tolerance is floored at the least positive float, not refused
        proc = hh("bound", *args)
        assert (proc.returncode, proc.stderr) == (0, "")
        row = json.loads(proc.stdout)
        assert row["valid"] is True
        assert (row["bound"], row["true_gap"]) == (0.0, 0.0)

    def test_class_check_failure_exits_three(self, hh):
        proc = hh("bound", "sin", "0", "3.14159", "convex_q1")
        assert proc.returncode == 3
        assert "class check failed" in proc.stderr

    def test_unknown_function_exits_two(self, capsys):
        assert cli.main(["bound", "nope", "0", "1", "convex_q1"]) == 2
        assert capsys.readouterr() == ("", UNKNOWN_FUNCTION)

    def test_unknown_theorem_exits_two(self, hh):
        # a name of no theorem, and a theorem of the means suite
        for theorem in ("nope", "prop_identric"):
            proc = hh("bound", "x2", "0", "1", theorem)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr.startswith(f"hh: unknown bound theorem '{theorem}'; "
                                          "bound theorems: baseline_pm, ")

    def test_interval_outside_domain_exits_two(self, hh):
        assert hh("bound", "inv_x", "0", "1", "quasi_q1").returncode == 2

    def test_explicit_exponents(self, hh):
        proc = hh("bound", "x2", "0", "1", "convex_holder", "--p", "2", "--q", "2")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["bound"] == pytest.approx(0.11180339887498948, rel=1e-12)

    def test_inconsistent_exponents_exit_two(self, hh):
        assert hh("bound", "x2", "0", "1", "convex_holder",
                  "--p", "2", "--q", "3").returncode == 2

    @pytest.mark.parametrize("theorem, exponents", [
        ("convex_q1", ("--q", "3")),
        ("quasi_monotone", ("--q", "0.5", "--p", "7")),
        ("convex_pm", ("--p", "7")),
        ("baseline_pm", ("--p", "7")),
    ])
    def test_exponent_on_theorem_without_one_exits_two(self, hh, theorem, exponents):
        proc = hh("bound", "x2", "0", "1", theorem, *exponents)
        assert proc.returncode == 2
        assert "takes no exponent" in proc.stderr

    def test_negative_endpoint_in_exponent_form(self, hh):
        proc = hh("bound", "x2", "-1e-3", "1", "convex_q1")
        assert proc.returncode == 0
        assert proc.stdout == hh("bound", "x2", "-0.001", "1", "convex_q1").stdout

    @pytest.mark.parametrize("theorem", ["convex_pm", "quasi_pm", "baseline_pm"])
    def test_nan_exponent_exits_two(self, hh, theorem):
        proc = hh("bound", "x4", "0", "1", theorem, "--q", "nan")
        assert proc.returncode == 2
        assert proc.stdout == ""


    @pytest.mark.parametrize("theorem, exponents", [
        ("convex_pm", ("--q", "0.5")),
        ("convex_pm", ("--p", "0.5")),
        ("convex_holder", ("--p", "0.5")),
        ("convex_holder", ("--q", "0.5")),
        ("convex_holder", ("--q", "inf")),
    ])
    def test_bad_exponent_exits_two_before_the_class_check(self, hh, theorem, exponents):
        # |f''| = sin is not convex on [0, 3]: the class check would exit 3
        proc = hh("bound", "sin", "0", "3", theorem, *exponents)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "class check" not in proc.stderr

    def test_infinite_exponent_named_on_a_pair(self, hh):
        proc = hh("bound", "x2", "0", "1", "convex_holder", "--q", "inf")
        assert proc.returncode == 2
        assert "got inf" in proc.stderr

    def test_infinite_power_mean_exponent_is_the_max(self, hh):
        proc = hh("bound", "x2", "0", "1", "convex_pm", "--q", "inf")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["bound"] == pytest.approx(1.0 / 12.0, rel=1e-15)

    @pytest.mark.parametrize("command, tail", [("bound", ("convex_q1",)),
                                               ("certify", ("1e-3",))])
    @pytest.mark.parametrize("a, b", [("-1.7e308", "1.7e308"), ("1e308", "1.7e308")])
    def test_overflowing_interval_exits_two(self, hh, command, tail, a, b):
        proc = hh(command, "x2", a, b, *tail)
        assert proc.returncode == 2
        assert "overflows" in proc.stderr

    @pytest.mark.parametrize("args", [("bound", "sin", "-1e308", "0", "convex_q1"),
                                      ("certify", "sin", "-1e308", "1.5707963", "1e-6")],
                             ids=lambda args: " ".join(args))
    def test_an_endpoint_beyond_half_the_float_range_exits_two(self, args):
        # a class check's pair midpoint 0.5 * (x + y) of two points near
        # -1e308 would overflow to -inf, where sin raises a domain error
        proc = run(*args)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(r"hh: interval \[\S+, \S+\] overflows: .*\n", proc.stderr)

    @pytest.mark.parametrize("args", [
        ("x3", "1", "2", "quasi_monotone"),
        ("inv_x", "1", "2", "convex_holder", "--p", "3"),
        # the baseline reads |f'| on the class checks' fine grid
        ("x3", "1", "2", "baseline_q1"),
        # the convex check takes the magnitude of f'' itself: |12 x^2|
        ("x4", "-1", "1", "convex_q1"),
        # |f''| of sin peaks inside this interval, so the sample is no
        # valley and the quasi-convex check tests every pair: within the
        # slack it passes (the wider 1.5707 1.5709 is refuted, exit 3)
        ("sin", "1.5707963", "1.5707964", "quasi_q1"),
    ], ids=lambda args: " ".join(args))
    def test_a_function_in_the_theorem_s_class_prints_its_row(self, hh, args):
        proc = hh("bound", *args)
        assert (proc.returncode, proc.stderr) == (0, "")
        row = json.loads(proc.stdout)
        assert (row["theorem"], row["valid"]) == (args[3], True)

    def test_a_tolerance_below_the_oracle_s_rounding_floor_ends_in_time(self):
        # the oracle is asked for 7e-8 on the integral of exp over [0, 700],
        # about 1e304, far below its rounding: it must stop at its floor
        proc = run("bound", "exp", "0", "700", "convex_q1", timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["valid"] is True


class TestMeansCommand:
    def test_one_two(self):
        proc = run("means", "1", "2")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["H"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert row["G"] == pytest.approx(2.0 ** 0.5, rel=1e-12)
        assert row["L"] == pytest.approx(1.4426950408889634, rel=1e-12)
        assert row["I"] == pytest.approx(1.4715177646857693, rel=1e-12)
        assert row["A"] == 1.5
        assert row["chain"] is True

    def test_equal_arguments(self, hh):
        row = json.loads(hh("means", "5", "5").stdout)
        assert all(row[k] == 5.0 for k in "AGHIL")
        assert row["chain"] is True

    def test_nonpositive_arguments_exit_two(self, hh):
        assert hh("means", "-1", "2").returncode == 2
        assert hh("means", "0", "2").returncode == 2

    def test_huge_pair_whose_product_overflows(self, hh):
        proc = hh("means", "1e200", "1e201")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["G"] == 3.1622776601683794e+200
        assert row["H"] == pytest.approx(2e201 / 11.0, rel=1e-15)
        assert row["chain"] is True

    def test_tiny_pair_whose_product_underflows(self, hh):
        proc = hh("means", "1e-200", "1e-190")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["G"] == pytest.approx(1e-195, rel=1e-15)
        assert row["H"] == pytest.approx(2e-200 / (1.0 + 1e-10), rel=1e-15)
        assert row["chain"] is True

    @pytest.mark.parametrize("a, b, means", [
        # a + b overflows: A and H take their fallback forms
        ("1e308", "1.7e308", {"A": 1.35e308, "H": 1.2592592592592593e308,
                              "I": 1.3346493654114548e308}),
        ("1e308", "1.5e308", {"A": 1.25e308}),
        # b ln b would overflow; I never forms it
        ("1e300", "1.7e308", {"I": 6.253951197094258e307}),
    ], ids=["sum-overflows", "sum-overflows-to-1.25e308", "b-ln-b-overflows"])
    def test_pair_near_the_top_of_the_float_range(self, hh, a, b, means):
        # the expected values are the mpmath means, correctly rounded
        proc = hh("means", a, b)
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["chain"] is True
        for key, value in means.items():
            assert row[key] == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("a, b", [("7.3", "7.3000001"), ("3", "3.0000000003"),
                                      ("1e6", "1.000000001e6")])
    def test_close_pair(self, hh, a, b):
        proc = hh("means", a, b)
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["chain"] is True
        assert float(a) <= row["L"] <= float(b)
        assert float(a) <= row["I"] <= float(b)


class TestCertifyCommand:
    def test_unknown_function_exits_two(self, capsys):
        assert cli.main(["certify", "nope", "0", "1", "1e-6"]) == 2
        assert capsys.readouterr() == ("", UNKNOWN_FUNCTION)

    def test_square(self):
        proc = run("certify", "x2", "0", "1", "1e-6")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert set(row) == {"estimate", "error_radius", "n", "oracle_value", "enclosed",
                            "theorem", "truncation_radius", "rounding_radius"}
        assert row["enclosed"] is True
        assert row["error_radius"] <= 1e-6
        assert abs(row["estimate"] - 1.0 / 3.0) <= row["error_radius"] + 1e-10

    def test_reciprocal(self, hh):
        proc = hh("certify", "inv_x", "1", "2", "1e-8")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["enclosed"] is True
        assert abs(row["estimate"] - 0.6931471805599453) <= 1e-8

    def test_zero_tolerance_exits_two(self, hh):
        assert hh("certify", "x2", "0", "1", "0").returncode == 2

    def test_unclassified_function_exits_three(self, hh):
        assert hh("certify", "sin", "0", "6", "1e-6").returncode == 3

    @pytest.mark.parametrize("args, theorem, n", [
        # f'''' = sin is convex on [0, pi]
        (("sin", "0", "3", "1e-10"), "corrected_fejer", 64),
        # f'''' is constant (x4) or linear (x5): only rounding is left at n = 1
        (("x4", "-1.5", "1.5", "1e-12"), "corrected_fejer", 1),
        (("x5", "-1", "1", "1e-6"), "corrected_fejer", 1),
        (("x_5_2", "1", "2", "1e-14"), "corrected_fejer", 64),
        # f'''' = sin and f'' = -sin bend both ways around pi, where
        # |f''| = |sin| has its least value: quasi-convex only
        (("sin", "2", "4.5", "1e-6"), "quasi_q1", 1024),
        # f'''' = -0.9375 x^-1.5 is concave: every fine-grid bend, about
        # 1.1e-10, lies above its chord by more than the slack, 2^-44 of
        # |f''''| (5.3e-14)
        (("x_5_2", "1", "1.001", "1e-14"), "corrected_fejer", 1),
    ])
    def test_names_the_rule_and_both_radius_parts(self, hh, args, theorem, n):
        proc = hh("certify", *args)
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert (row["theorem"], row["n"], row["enclosed"]) == (theorem, n, True)
        assert row["error_radius"] >= row["truncation_radius"] + row["rounding_radius"]
        assert row["error_radius"] <= float(args[-1])

    @pytest.mark.parametrize("args", [
        # f'''' = 120 x is linear, with an ulp of 1.9e-9 here
        ("x5", "1e5", "1.1e5", "1e20"),
        # f'''' = f'' = e^x near 1.8e10
        ("exp", "23.63423741971625", "23.63424507752042", "1e-6"),
    ])
    def test_large_derivative_values_keep_their_class(self, hh, args):
        # the class slack scales with the sample: rounding noise in values
        # far above 1 refutes no class, so the first rule certifies
        proc = hh("certify", *args)
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert (row["theorem"], row["n"], row["enclosed"]) == ("corrected_fejer", 1, True)
        assert row["error_radius"] <= float(args[-1])

    @pytest.mark.parametrize("args, theorem, n", [
        # f'' = 12 x^2 is convex
        (("x4", "-1.5", "1.5", "1e-12"), "fejer", 2048),
        # f'' = 20 x^3 turns at 0, |f''| = 20 |x|^3 is convex
        (("x5", "-1", "1", "1e-6"), "convex_q1", 2048),
    ])
    def test_a_function_without_f4_falls_back_to_the_next_rule(self, args, theorem, n,
                                                                 monkeypatch, capsys):
        catalog = cli.catalog_by_id()
        monkeypatch.setattr(cli, "catalog_by_id", lambda: {
            fid: dataclasses.replace(fn, d4=None) for fid, fn in catalog.items()})
        assert cli.main(["certify", *args]) == 0
        row = json.loads(capsys.readouterr().out)
        assert (row["theorem"], row["n"], row["enclosed"]) == (theorem, n, True)

    def test_a_refused_class_falls_through_to_the_next_rule(self, monkeypatch, capsys):
        # x^2 with f'''' = inf at 0 and 0 elsewhere: the value refutes the
        # corrected rule's class, so fejer certifies, with f'' = 2
        x2 = cli.catalog_by_id()["x2"]
        fn = dataclasses.replace(x2, d4=lambda x: math.inf if x == 0.0 else 0.0)
        monkeypatch.setattr(cli, "catalog_by_id", lambda: {"x2": fn})
        assert cli.main(["certify", "x2", "0", "1", "1e-10"]) == 0
        captured = capsys.readouterr()
        row = json.loads(captured.out)
        assert (row["theorem"], row["n"], row["estimate"], row["enclosed"], captured.err) == (
            "fejer", 1, 1.0 / 3.0, True, "")

    @pytest.mark.parametrize("args, derivative", [
        # exp over [0, 700]: the rounding slack of the f'''' sums at n = 1
        # already puts the radius at 2^20 panels above 1e-6
        (("exp", "0", "700", "1e-6"), "f''''"),
        # a floor far below the top of the float range, at a tolerance of 1e-300
        (("inv_x", "0.25", "4", "1e-300"), "f''''"),
        # the first three rules are refused their class, and quasi_q1's
        # trapezoid sum of |f''| read at n = 1 puts every level up to 2^20
        # above 1e-20
        (("sin", "2", "4.5", "1e-20"), "f''"),
    ], ids=["exp", "inv_x", "sin"])
    def test_tolerance_below_every_grid_fails_fast(self, hh, args, derivative):
        # the floor refuses at n = 1, before the first doubling; one stderr
        # line, and no traceback
        proc = hh("certify", *args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert re.fullmatch(rf"hh: radius at n=1048576 is at least \S+ \(floor from the "
                            rf"{derivative} read up to n=1\), above {float(args[-1])!r}\n",
                            proc.stderr), proc.stderr

    @pytest.mark.parametrize("args", [("inv_x", "1", "2", "1e-12"), ("exp", "-1", "1", "1e-11")])
    def test_tight_rungs_enclose(self, hh, args):
        proc = hh("certify", *args)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["enclosed"] is True

    @pytest.mark.parametrize("args", [("x_5_2", "1", "2", "1e-14"), ("inv_x", "1", "2", "1e-8")])
    def test_a_miss_past_the_radius_is_not_enclosed(self, args, monkeypatch, capsys):
        # `enclosed` adds the oracle's error estimate to the radius, so the
        # oracle must be asked for a small share of the radius: an estimate
        # moved 1.05 radii away from the oracle value must fail
        asked = []
        integrate = oracle.integrate
        monkeypatch.setattr(oracle, "integrate",
                            lambda f, iv, tol: asked.append(tol) or integrate(f, iv, tol))
        assert cli.main(["certify", *args]) == 0
        row = json.loads(capsys.readouterr().out)
        assert asked == [min(1e-2 * float(args[-1]), 1e-10, 1e-2 * row["error_radius"])]
        away = math.copysign(1.05 * row["error_radius"], row["estimate"] - row["oracle_value"])
        certify = certifier.certify

        def shifted(*call):
            result = certify(*call)
            return dataclasses.replace(result, estimate=result.estimate + away)

        monkeypatch.setattr(certifier, "certify", shifted)
        assert cli.main(["certify", *args]) == 1
        assert json.loads(capsys.readouterr().out)["enclosed"] is False

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the midpoint is rounded, which moves exp by far more than "
                              "ULPS covers (ROADMAP item 15), and the oracle reads rounded "
                              "nodes too, so `enclosed` passes the miss (ROADMAP item 8)")
    def test_a_rounded_midpoint_miss_is_refused_or_not_enclosed(self, capsys):
        # today: n = 1, radius 6.64e240, a miss of 64.0 radii, and
        # "enclosed": true with exit 0
        mpmath = pytest.importorskip("mpmath")
        a, b = "596.1196691907426", "596.1206262413542"
        rc = cli.main(["certify", "exp", a, b, "1.8208686871134713e+242"])
        if rc != 0:
            return
        row = json.loads(capsys.readouterr().out)
        with mpmath.mp.workdps(60):
            exact = mpmath.exp(mpmath.mpf(b)) - mpmath.exp(mpmath.mpf(a))
            miss = abs(mpmath.mpf(row["estimate"]) - exact)
        assert miss <= row["error_radius"]

    def test_a_zero_radius_still_asks_the_oracle_for_a_positive_tolerance(self, monkeypatch,
                                                                          capsys):
        certify = certifier.certify
        monkeypatch.setattr(certifier, "certify",
                            lambda *call: dataclasses.replace(certify(*call), error_radius=0.0))
        assert cli.main(["certify", "x2", "0", "1", "1e-6"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["error_radius"] == 0.0

    def test_a_subnormal_radius_asks_the_oracle_for_the_least_positive_tolerance(
            self, monkeypatch, capsys):
        # x^2 over [0, 1e-160] certifies with a radius of a few subnormals
        # (4.4e-323), and a hundredth of that rounds to 0, a tolerance the
        # oracle refuses
        asked = []
        integrate = oracle.integrate
        monkeypatch.setattr(oracle, "integrate",
                            lambda f, iv, tol: asked.append(tol) or integrate(f, iv, tol))
        assert cli.main(["certify", "x2", "0", "1e-160", "1e-6"]) == 0
        captured = capsys.readouterr()
        row = json.loads(captured.out)
        assert (row["enclosed"], captured.err) == (True, "")
        assert 0.0 < row["error_radius"] < 50 * math.ulp(0.0)
        assert asked == [math.ulp(0.0)]

    def test_tolerance_below_the_rounding_floor_exits_one(self):
        proc = run("certify", "affine", "0", "2", "1e-16")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "rounding part" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truncation_part_past_the_float_range_doubles_on(self, hh):
        proc = hh("certify", "exp", "0", "700", "1e300")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["enclosed"] is True
        assert row["n"] > 1 and row["error_radius"] <= 1e300

    def test_a_sum_past_the_float_range_is_an_evaluation_error(self, hh):
        # exp over [700, 709]: no evaluation overflows, the f'''' sum does
        proc = hh("certify", "exp", "700", "709", "1e300")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "hh: f'''' is not finite on the grid of n=16\n")

    def test_an_estimate_past_the_float_range_names_the_estimate(self, hh):
        # x^2 over [1e153, 1.3e154]: every read and the radius are finite,
        # and the integral, about 7e461, is not
        proc = hh("certify", "x2", "1e153", "1.3e154", "1e300")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "hh: the estimate is not finite on the grid of n=1\n")

    def test_an_estimate_near_the_top_of_the_float_range_certifies(self, hh):
        # x^2 over [1e100, 1e102]: h^5 is past the float range, but the
        # centre starts from T + M = 0 and takes h one factor at a time
        proc = hh("certify", "x2", "1e100", "1e102", "1e300")
        row = json.loads(proc.stdout)
        assert (proc.returncode, row["n"], row["theorem"], row["enclosed"]) == (
            0, 1, "corrected_fejer", True)
        assert row["estimate"] == pytest.approx((1e306 - 1e300) / 3, rel=1e-12)

    def test_negative_tolerance_in_exponent_form_reaches_the_certifier(self, hh):
        proc = hh("certify", "x2", "0", "1", "-1e-3")
        assert proc.returncode == 2
        assert "tolerance must be positive" in proc.stderr

    def test_a_rule_that_refuses_passes_the_request_on(self, capsys):
        # corrected_fejer's rounding part at n = 1 is above tol, while
        # fejer's whole radius fits at n = 8
        a, b, tol = "-1.3289972113926303", "1.4252986894327058", "1.784519080023863e-15"
        assert cli.main(["certify", "x2", a, b, tol]) == 0
        row = json.loads(capsys.readouterr().out)
        assert (row["theorem"], row["n"], row["enclosed"]) == ("fejer", 8, True)
        assert row["error_radius"] <= float(tol)
        exact = (Fraction(float(b)) ** 3 - Fraction(float(a)) ** 3) / 3
        assert abs(Fraction(row["estimate"]) - exact) <= Fraction(row["error_radius"])


class TestVerifyCommand:
    def test_identity_suite_passes(self):
        proc = run("verify", "--suite", "identity", "--cases", "2", "--seed", "7")
        assert proc.returncode == 0
        lines = parse_lines(proc.stdout)
        assert lines and all(line["pass"] for line in lines)
        assert all(line["suite"] == "identity" for line in lines)

    def test_json_keys_are_sorted(self, hh):
        proc = hh("verify", "--suite", "means", "--cases", "2", "--seed", "3")
        for raw in proc.stdout.splitlines():
            keys = list(json.loads(raw))
            assert keys == sorted(keys)

    def test_schema_fields(self, hh):
        proc = hh("verify", "--suite", "convex", "--cases", "1", "--seed", "1")
        for line in parse_lines(proc.stdout):
            assert set(line) == {"suite", "function", "interval", "theorem",
                                 "bound", "gap", "slack", "pass"}

    def test_same_seed_is_byte_identical(self):
        # two processes, each with its own hash seed: the bytes depend on
        # the seed given alone
        first = run("verify", "--suite", "means", "--cases", "5", "--seed", "42")
        second = run("verify", "--suite", "means", "--cases", "5", "--seed", "42")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_different_seeds_differ(self, hh):
        first = hh("verify", "--suite", "means", "--cases", "5", "--seed", "1")
        second = hh("verify", "--suite", "means", "--cases", "5", "--seed", "2")
        assert first.stdout != second.stdout

    def test_zero_cases_exit_two(self, hh):
        assert hh("verify", "--suite", "all", "--cases", "0").returncode == 2

    def test_unknown_suite_exits_two(self, hh):
        # the library's refusal names the suites; under --csv no header
        # precedes it
        for fmt in [], ["--csv"]:
            proc = hh("verify", "--suite", "bogus", *fmt)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == ("hh: unknown suite 'bogus'; suites: identity, convex, "
                                   "quasiconvex, means, all\n")

    def test_csv_output(self, hh):
        proc = hh("verify", "--suite", "means", "--cases", "2", "--seed", "3", "--csv")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        header = lines[0].split(",")
        assert header == sorted(["suite", "function", "interval", "theorem",
                                 "bound", "gap", "slack", "pass"])
        assert len(lines) > 1

    def test_reader_closing_stdout_early_leaves_no_traceback(self):
        # 20,000 cases print about 400 MB, far more than a pipe buffer
        # holds, so the writer is still writing when the reader goes away:
        # hh writes each line as the sweep yields it, and the closed pipe
        # ends the sweep at once with exit 1
        proc = subprocess.Popen(
            CMD + ["verify", "--suite", "all", "--seed", "7", "--cases", "20000"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        assert json.loads(proc.stdout.readline())["suite"] == "identity"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=20)
        assert proc.returncode == 1
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("suite, fmt", [
        # the six means propositions, each through its one report path
        ("means", []),
        ("quasiconvex", []),
        # CSV cells are JSON-encoded, a single sweep's too
        ("convex", ["--csv"]),
    ], ids=["means", "quasiconvex", "convex-csv"])
    def test_a_seeded_sweep_passes(self, hh, suite, fmt):
        proc = hh("verify", "--suite", suite, "--cases", "2", "--seed", "7", *fmt)
        assert (proc.returncode, proc.stderr) == (0, "")
        if fmt:
            header, *rows = csv.reader(io.StringIO(proc.stdout))
            lines = [dict(zip(header, map(json.loads, row))) for row in rows]
        else:
            lines = parse_lines(proc.stdout)
        assert lines and all(line["pass"] is True for line in lines)
        assert all(line["suite"] == suite for line in lines)

    def test_json_is_not_an_option(self, hh):
        # JSON lines are the default, and --csv the one format option
        proc = hh("verify", "--suite", "means", "--cases", "1", "--json")
        assert proc.returncode == 2
        assert "--json" in proc.stderr
        assert proc.stdout == ""


#: sha256 of json.dumps([exit status, stdout, stderr]) of `hh certify` on
#: the 13 benchmark ladder rungs, five rungs that reach each rule's
#: regime, four refusals (no class, the floor, the rounding part, the
#: floor at a tolerance far below it), and a request that the first rule
#: refuses and the second certifies; restated when the certificate moved
#: to float bounds, with every n, theorem and exit status kept (see
#: CHANGES.md for the bytes that moved)
CERTIFY_BYTES = [
    (("x2", "0", "1", "1e-6"),
     "31b4d03613ac2dbd4e3bc3ee4f82face2e4fcb2e09d36684fe048552b9a2784b"),
    (("exp", "-1", "1", "1e-8"),
     "c64c839144c1153e04d01ffc93fa426f3c34530b1e2a578fb872b82e4447a535"),
    (("x3", "0", "2", "1e-8"),
     "bd97da4fbeea452b34025e729277fae39c6e6fbea32d9a27bb39e8f378cde241"),
    (("x4", "-1.5", "1.5", "1e-8"),
     "11281340501142705e7790d042f449148bd935168c5d44e658a47c62ee705487"),
    (("affine", "0", "2", "1e-12"),
     "7f1cceed143f80cd99314d88f4d8bbde9ed91ed9d60edb22bd19a28c845e93b3"),
    (("x_5_2", "0.25", "4", "1e-9"),
     "76c9e2ec460214360a4fbf64221cc09a02f45bd664544b993da34a37144c22df"),
    (("inv_x", "1", "2", "1e-10"),
     "87522dc4fb5fd80b1039a9bb672c18b8fb3c293e3ad1e0a8be4f6afee5bdde6e"),
    (("x5", "0.5", "1.5", "1e-10"),
     "0f3738c7741d7aaec03bf5bd814b3ab51aca1999c4e3f62be3dd75a4668675ed"),
    (("neg_ln", "0.5", "3", "1e-10"),
     "ac4d9d7fc072fbce617a7b4e576f1651eeddc040f8166bbe5ad3b4bf30fcea60"),
    (("x_5_2", "1", "2", "1e-10"),
     "48e20ca5a961900bd1bdb0f18fa746f3406e9c9bc09eff5ba8185a7bf76cd105"),
    (("x2", "0", "1", "1e-12"),
     "31b4d03613ac2dbd4e3bc3ee4f82face2e4fcb2e09d36684fe048552b9a2784b"),
    (("inv_x", "1", "2", "1e-12"),
     "14499af6eb1dcc848ae2b402e482f1fd35e87610c848979af49cfd14391680a3"),
    (("exp", "-1", "1", "1e-11"),
     "61e5e63e2df22aded6d375a90f1cac39a381e5ba64973ec9318c1cf1047e2ff8"),
    (("x4", "-1.5", "1.5", "1e-12"),
     "11281340501142705e7790d042f449148bd935168c5d44e658a47c62ee705487"),
    (("sin", "0", "3", "1e-10"),
     "1f18fe87a21045f7fb07a7d715464c765bbdc0d15975a82ab596d6295d82dc1b"),
    (("x_5_2", "1", "2", "1e-14"),
     "8a0890cacf7dd10a256b80baf582ebe51246bc1faea31ad5b13f7c1de4555b36"),
    (("x5", "-1", "1", "1e-6"),
     "9baa9a66382c4036dc50710bd6e6914aa6073856b77cea10bc2c3cc3a4ef07cd"),
    (("sin", "2", "4.5", "1e-8"),
     "79ff5f0f8797d0c93e145bfbe14a082219b28d5042cf0f423b073bd6029472ba"),
    (("sin", "0", "6", "1e-6"),
     "727a218884455ba7a2f546365b3fd16fc4aa26c104c7e287f0abffc08b35a902"),
    (("exp", "0", "700", "1e-6"),
     "89a1a93f60b0be1c64169bf448e6fb0166b62befacbd82d05e9593f458b58ec0"),
    (("x2", "0", "1", "1e-300"),
     "6c70c08b80a06a4f262256a92a26d023bebbd9159481c39f37af904353910671"),
    (("inv_x", "0.25", "4", "1e-300"),
     "56bea20ddb3a3457ae0888f1af42f2188c4cdcb58b18f1304f5c28271ac3b413"),
    (("x2", "-1.3289972113926303", "1.4252986894327058", "1.784519080023863e-15"),
     "ffab3591f55422842e24b92e5874b6f6d270b979c3d4459aabd68d44f4bcc7df"),
]


@pytest.mark.parametrize("args, digest", CERTIFY_BYTES,
                         ids=[" ".join(args) for args, _ in CERTIFY_BYTES])
def test_certify_bytes(args, digest, capsys):
    """The bytes and the exit status of `hh certify`, in-process (the same
    as a fresh run's; see the parser test below).

    The digests were taken with glibc 2.36's libm; another libm may round
    exp, log, pow or sin differently in the last bit and so change them
    without a change in this program.
    """
    rc = cli.main(["certify", *args])
    captured = capsys.readouterr()
    text = json.dumps([rc, captured.out, captured.err])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_seeded_csv_bytes(capsys):
    """The bytes `hh verify --suite all --cases 3 --seed 7 --csv` prints:
    a header, then one row of JSON-encoded cells per sweep line.

    Taken with glibc 2.36's libm, as the digests of the JSON-lines sweep.
    """
    assert cli.main(["verify", "--suite", "all", "--cases", "3", "--seed", "7", "--csv"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 364
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "76fe21b6956ef506043f8fef13cf1439efde0d237790a28fc8ac892948cd5231")


def test_seeded_csv_bytes_of_the_whole_sweep(capsys):
    """The same at `--cases 100`, the sweep whose JSON lines the
    ``SWEEP_DIGESTS`` of test_suites.py pin."""
    assert cli.main(["verify", "--suite", "all", "--cases", "100", "--seed", "7", "--csv"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 9373
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "32661565fa1eef4c9ce1297a2551cd4f79bdebf246272c93cc38054789b3124b")


@pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["json", "csv"])
def test_sweep_bytes_are_the_encoders_over_its_rows(fmt, capsysbinary):
    """The bytes of a whole seeded sweep, on any libm: ``json.dumps`` of
    each row, or under ``--csv`` ``csv.writer``'s over the sorted keys and
    then ``json.dumps`` of each cell; and every JSON line strict JSON, with
    no NaN or Infinity."""
    assert cli.main(["verify", "--suite", "all", "--seed", "7", "--cases", "100", *fmt]) == 0
    out, err = capsysbinary.readouterr()
    rows = suites.run_suite("all", 100, 7)
    expected = io.StringIO()
    if fmt:
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(sorted(rows[0]))
        for row in rows:
            writer.writerow([json.dumps(row[key]) for key in sorted(row)])
    else:
        expected.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert (out, err) == (expected.getvalue().encode(), b"")
    if not fmt:
        def refuse(constant):
            raise ValueError(f"hh verify printed {constant}, which is not JSON")

        for line in out.decode().splitlines():
            json.loads(line, parse_constant=refuse)


@pytest.mark.parametrize("argv", [["bound", "x2", "0", "1", "convex_q1"], ["means", "1", "2"],
                                  ["certify", "x4", "-1.5", "1.5", "1e-12"]],
                         ids=lambda argv: argv[0])
def test_csv_of_a_one_row_command_is_its_json_row(argv, capsys):
    """``--csv`` prints the sorted keys of the JSON row the same request
    prints, then ``json.dumps`` of each of its values, through
    ``csv.writer``: two lines."""
    rc = cli.main(argv)
    row = json.loads(capsys.readouterr().out)
    assert cli.main([*argv, "--csv"]) == rc
    captured = capsys.readouterr()
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(sorted(row))
    writer.writerow([json.dumps(row[key]) for key in sorted(row)])
    assert (captured.out, captured.err) == (expected.getvalue(), "")
    assert len(captured.out.splitlines()) == 2


#: a number: a finite float, signed zeros, subnormals and the ends of the
#: float range among them
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]))

#: a name: plain names, quotes, backslashes, control characters, non-ASCII
#: text and lone surrogates
NAMES = st.one_of(
    st.sampled_from(["x2", "convex_q1", "identity", 'q"uote', "back\\slash", "\x00\t\x1f\x7f",
                     "\u00e9\u20ac\U0001f600", "\ud800"]),
    st.text(st.characters(categories=["L", "N", "P", "S", "Z", "C"]), max_size=6),
)


def _is_interval(ends):
    try:
        Interval(*ends)
    except DomainError:
        return False
    return True


#: the endpoints of an interval: two numbers that ``Interval`` takes
ENDPOINTS = st.tuples(FLOATS, FLOATS).map(sorted).filter(_is_interval)


def _twin(x):
    """An object equal to x but not x: a float copied through its bytes,
    the other signed zero for a zero (equal, but printed otherwise), a str
    rebuilt."""
    if type(x) is float:
        return -x if x == 0.0 else struct.unpack("<d", struct.pack("<d", x))[0]
    return "".join([x[:1], x[1:]]) if len(x) > 1 else x


@st.composite
def sweep_rows(draw):
    """Lines built by ``suites._line``, in runs that share one interval's
    function, gap and endpoint objects, as a sweep's lines do; a run's
    objects may be fresh, the last run's own, or those with one of them
    swapped for its equal twin.  Each bound keeps bound - gap finite."""
    rows, shared = [], None
    for _ in range(draw(st.integers(0, 6))):
        how = draw(st.sampled_from(["fresh", "same", "twin"]))
        if shared is None or how == "fresh":
            shared = [draw(NAMES), draw(FLOATS), *draw(ENDPOINTS)]
        elif how == "twin":
            i = draw(st.integers(0, 3))
            shared = [*shared[:i], _twin(shared[i]), *shared[i + 1:]]
        fid, gap, a, b = shared
        iv = Interval(a, b)
        bounds = FLOATS.filter(lambda bound: math.isfinite(bound - gap))
        for _ in range(draw(st.integers(1, 5))):
            rows.append(suites._line(draw(NAMES), fid, iv, draw(NAMES), draw(bounds), gap,
                                     draw(st.booleans())))
    return rows


def _neighbours(gaps, intervals):
    """Lines of one function whose gaps and intervals are the given objects."""
    return [suites._line("convex", "x2", iv, "convex_q1", 1.0, gap, True)
            for gap, iv in zip(gaps, intervals)]


@settings(max_examples=400)
@given(sweep_rows())
@example(_neighbours([0.0, -0.0], [Interval(0.0, 1.0)] * 2))  # equal gaps, printed otherwise
@example(_neighbours([0.5] * 2, [Interval(0.0, 1.0), Interval(-0.0, 1.0)]))  # and endpoints
@example(_neighbours([0.5, _twin(0.5)],  # one value, two objects
                     [Interval(0.5, 1.0), Interval(_twin(0.5), 1.0)]))
def test_sweep_lines_are_the_encoders_bytes(rows):
    verdicts = set()
    cells = list(cli._sweep_cells(rows, verdicts))
    assert cells == [tuple(json.dumps(row[key]) for key in sorted(row)) for row in rows]
    assert verdicts == {json.dumps(row["pass"]) for row in rows}
    assert list(cli._json_lines(cells)) == [json.dumps(row, sort_keys=True) + "\n"
                                            for row in rows]


def _printed_before(argv, theorem, capsys):
    """What the unpatched `hh <argv>` prints before its first line of
    ``theorem``: the CSV header too, under ``--csv``."""
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines(keepends=True)
    header = printed[:1] if "--csv" in argv else []
    args = cli._parser().parse_args(argv)
    first = next(i for i, line in enumerate(suites.iter_suite(args.suite, args.cases, args.seed))
                 if line["theorem"] == theorem)
    return "".join(header + printed[len(header):len(header) + first])


def test_a_sweep_line_past_the_float_range_exits_one_after_the_lines_before_it(monkeypatch,
                                                                                capsys):
    # at an infinite gap no slack is a float: the sweep's first line is
    # refused, so nothing is printed
    argv = ["verify", "--suite", "convex", "--cases", "1"]
    before = _printed_before(argv, "convex_q1", capsys)
    monkeypatch.setattr(suites, "midpoint_gap", lambda fn, iv: math.inf)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == before == ""
    assert re.fullmatch(r"hh: the convex_q1 line on \[\S+, \S+\] is past the float range\n", err)


@pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["json", "csv"])
def test_a_line_past_the_float_range_late_in_the_stream_ends_the_output_there(fmt, monkeypatch,
                                                                               capsys):
    # means is the last sweep `all` runs: every earlier line is printed as
    # the sweep yields it, and the refused line is not
    argv = ["verify", "--suite", "all", "--cases", "1", *fmt]
    before = _printed_before(argv, "prop_monomial_quasi", capsys)
    assert before.count("\n") > 100
    check = suites.check_prop_monomial_quasi
    monkeypatch.setattr(suites, "check_prop_monomial_quasi",
                        lambda *args: dataclasses.replace(check(*args), bound=math.inf))
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == before
    assert re.fullmatch(
        r"hh: the prop_monomial_quasi line on \[\S+, \S+\] is past the float range\n", err)


@pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["json", "csv"])
def test_a_failed_verdict_exits_one_after_every_line(fmt, monkeypatch, capsys):
    # a convex_q1 bound of -1 undercuts every gap of a convex f'': each of
    # its lines fails, the sweep runs on, and the exit status is 1
    argv = ["verify", "--suite", "convex", "--cases", "2", "--seed", "7", *fmt]

    def printed_lines():
        out = capsys.readouterr().out
        if fmt:
            header, *rows = csv.reader(io.StringIO(out))
            return [dict(zip(header, map(json.loads, row))) for row in rows]
        return parse_lines(out)

    assert cli.main(argv) == 0
    before = printed_lines()
    monkeypatch.setattr(suites.bc, "bound_convex_q1", lambda iv, fa, fb: -1.0)
    assert cli.main(argv) == 1
    after = printed_lines()
    assert len(after) == len(before)
    failed = [line for line in after if line["theorem"] == "convex_q1"]
    assert failed and all(line["pass"] is False for line in failed)
    assert ([line for line in after if line["theorem"] != "convex_q1"]
            == [line for line in before if line["theorem"] != "convex_q1"])
    assert all(line["pass"] is True for line in before)


class LineCounter:
    """A stdout that counts the lines written to it and keeps none."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)


@pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["json", "csv"])
def test_verify_holds_no_line_after_writing_it(fmt):
    """The traced peak of one `hh verify` into a sink that keeps nothing
    does not grow with the sweep: under 1 MB at 400 cases, 37,248 lines."""
    argv = ["verify", "--suite", "all", "--cases", "400", "--seed", "7", *fmt]
    sink = LineCounter()
    with contextlib.redirect_stdout(sink):
        cli.main([*argv[:4], "1"])  # the parser and the catalog are built once a process
        sink.lines = 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert sink.lines == 37248 + len(fmt)
    assert peak < 1_000_000


@pytest.mark.parametrize("args,stderr", [
    pytest.param(("bound", "exp", "0", "800", "convex_q1"),
                 "hh: an evaluation overflowed (math range error)\n", id="args0"),
    pytest.param(("certify", "exp", "0", "800", "1e-6"),
                 "hh: an evaluation overflowed (math range error)\n", id="args1"),
    # a float power overflows with (errno, message); the message alone is printed
    pytest.param(("bound", "x5", "-1e100", "1e100", "baseline_q1"),
                 "hh: an evaluation overflowed (Numerical result out of range)\n", id="args2"),
])
def test_overflowing_evaluation_exits_one_without_traceback(args, stderr):
    proc = run(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == stderr


def test_panel_sums_past_the_float_range_exit_one_without_an_overflow():
    # every value of x^2 is a float, the oracle's panel sums are not: an
    # EvaluationError (exit 1, no row), not an evaluation that overflowed
    proc = run("bound", "x2", "1e150", "1.5e150", "convex_q1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("hh: the K15 sums of the panel [1e+150, 1.5e+150] are past "
                           "the float range\n")


@pytest.mark.parametrize("args, refusal", [
    (("bound", "sin", "0", "3.14159", "convex_q1"),
     "|f''| of 'sin' is not convex on [0.0, 3.14159]"),
    (("bound", "x4", "-1", "1", "quasi_monotone"),
     "|f''| of 'x4' is not monotone on [-1.0, 1.0]"),
    (("bound", "sin", "0", "3.14159", "quasi_monotone"),
     "|f''| of 'sin' is not monotone on [0.0, 3.14159]"),
    (("bound", "sin", "0.2", "1.3", "baseline_q1"),
     "|f'| of 'sin' is not convex on [0.2, 1.3]"),
    (("certify", "sin", "0", "6", "1e-6"),
     "|f''| of 'sin' is not quasi-convex on [0.0, 6.0]"),
    (("bound", "sin", "0", "3.14159", "quasi_q1"),
     "|f''| of 'sin' is not quasi-convex on [0.0, 3.14159]"),
    # |f''| of sin peaks inside the interval, and the pair test refutes it
    # past the slack (the narrower 1.5707963 1.5707964 passes)
    (("bound", "sin", "1.5707", "1.5709", "quasi_q1"),
     "|f''| of 'sin' is not quasi-convex on [1.5707, 1.5709]"),
    # the convex check reads f'' and takes the magnitude itself: the
    # concave |f''| of x^(5/2) is refused
    (("bound", "x_5_2", "1", "2", "convex_q1"),
     "|f''| of 'x_5_2' is not convex on [1.0, 2.0]"),
], ids=["bound-convex", "bound-monotone", "bound-monotone-sin", "bound-baseline",
        "certify", "bound-quasi-sin", "bound-quasi-peak", "bound-convex-concave"])
def test_class_refusal_names_the_interval(args, refusal):
    proc = run(*args)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"hh: class check failed: {refusal}\n"


def test_startup_loads_the_standard_library_alone_and_no_fractions():
    # hh's start-up, as hhbench's setup probe reads it: only stdlib
    # modules, neither fractions nor the decimal it imports, and of the
    # package only the CLI and the catalog's core
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import hhbounds, hhbounds.cli\n"
        "hhbounds.cli.catalog_by_id()\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps([sorted(new - set(sys.stdlib_module_names) - {'hhbounds'}),\n"
        "                  sorted({'fractions', 'decimal'} & set(sys.modules)),\n"
        "                  sorted(name for name in sys.modules\n"
        "                         if name.partition('.')[0] == 'hhbounds')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    third_party, deferred, package = json.loads(proc.stdout)
    assert third_party == []
    assert deferred == []
    assert package == ["hhbounds", "hhbounds.cli", "hhbounds.core"]


#: the hhbounds modules of one bound report or sweep: all but the certifier
_SWEEP_MODULES = ["bounds_convex", "bounds_quasiconvex", "cli", "core", "identity", "means",
                  "oracle", "suites"]


@pytest.mark.parametrize("argv, modules", [
    (["verify", "--suite", "means", "--cases", "1"], _SWEEP_MODULES),
    (["bound", "x2", "0", "1", "convex_q1"], _SWEEP_MODULES),
    (["means", "1", "2"], ["bounds_convex", "bounds_quasiconvex", "cli", "core", "means"]),
    (["certify", "inv_x", "1", "2", "1e-8"], ["certifier", "cli", "core", "oracle"]),
], ids=["verify", "bound", "means", "certify"])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    # a fresh process: `hh means` loads no certifier, oracle, suites or
    # identity; `hh certify` no suites, means, identity or bounds;
    # and no command loads csv without --csv
    code = (
        "import contextlib, io, json, sys\n"
        "import hhbounds.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = hhbounds.cli.main({argv!r})\n"
        "print(json.dumps([rc, 'csv' in sys.modules,\n"
        "                  sorted(name.partition('.')[2] for name in sys.modules\n"
        "                         if name.startswith('hhbounds.'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False, modules]


@pytest.mark.parametrize("args, theorem", [
    (("x4", "-1.5", "1.5", "1e-12"), "corrected_fejer"),
    (("x2", "-1.3289972113926303", "1.4252986894327058", "1.784519080023863e-15"), "fejer"),
    (("sin", "2", "4.5", "1e-8"), "quasi_q1"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_a_certificate_imports_neither_fractions_nor_decimal(args, theorem):
    # each rule closes its certificate in floats, so under every rule the
    # ladder reaches, a process that certifies imports the standard library
    # and hhbounds alone (`dependencies = []` is enough), and never exact
    # rationals
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "import hhbounds.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    rc = hhbounds.cli.main(['certify', *{list(args)!r}])\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps([rc, json.loads(out.getvalue())['theorem'],\n"
        "                  sorted(new - set(sys.stdlib_module_names) - {'hhbounds'}),\n"
        "                  sorted({'fractions', 'decimal'} & set(sys.modules))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, theorem, [], []]


def test_parser_is_built_once_and_reused_after_a_usage_error(capsys):
    # one process, as the benchmark and library callers run hh: the output
    # of each call is that of a fresh `hh` run
    calls = [["means", "1", "2"], ["certify", "x2", "0"],
             ["certify", "x4", "-1.5", "1.5", "1e-12", "--csv"], ["means", "1", "2"]]
    outputs = []
    for argv in calls:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
        captured = capsys.readouterr()
        outputs.append((rc, captured.out, captured.err))
    assert [rc for rc, _, _ in outputs] == [0, 2, 0, 0]
    for argv, output in zip(calls, outputs):
        proc = run(*argv)
        assert output == (proc.returncode, proc.stdout, proc.stderr)
    assert cli._parser() is cli._parser()


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of each attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["json", "csv"])
@pytest.mark.parametrize("argv", [["verify", "--suite", "means", "--cases", "1"],
                                  ["bound", "x2", "0", "1", "convex_q1"], ["means", "1", "2"],
                                  ["certify", "x2", "0", "1", "1e-6"]],
                         ids=lambda argv: argv[0])
def test_every_option_hh_parses_is_read(argv, fmt):
    parser = cli._parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in subparsers.choices[argv[0]]._actions} - {"help"}
    args = parser.parse_args([*argv, *fmt], namespace=ReadRecorder())
    # argparse itself reads every dest while it parses
    reads = object.__getattribute__(args, "_reads")
    reads.clear()
    args.run(args)
    assert dests - reads == set()


def test_import_builds_no_parser():
    code = "import hhbounds.cli as cli; print(cli._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
