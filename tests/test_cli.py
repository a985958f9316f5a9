import dataclasses
import hashlib
import json
import math
import struct
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhbounds import cli, suites
from hhbounds.core import Interval

CMD = [sys.executable, "-m", "hhbounds"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def parse_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


class TestBoundCommand:
    def test_sharp_square_case(self):
        proc = run("bound", "x2", "0", "1", "convex_q1")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert set(row) == {"theorem", "bound", "true_gap", "slack", "valid"}
        assert row["bound"] == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert row["true_gap"] == pytest.approx(1.0 / 12.0, rel=1e-9)
        assert row["valid"] is True

    def test_reciprocal_quasi_case(self):
        proc = run("bound", "inv_x", "1", "2", "quasi_q1")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["bound"] == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert row["true_gap"] == pytest.approx(0.026480513893278643, rel=1e-8)

    def test_a_bound_past_the_float_range_exits_one(self):
        # exp over [700, 709]: quasi_q1 takes 81/8 e^709, past the float
        # range, and prints no row; no evaluation overflowed, and stderr
        # does not say one did.  convex_q1 takes the mean of the ends
        proc = run("bound", "exp", "700", "709", "quasi_q1")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "quasi_q1 bound" in proc.stderr and "Traceback" not in proc.stderr
        assert "overflowed" not in proc.stderr
        proc = run("bound", "exp", "700", "709", "convex_q1")
        row = json.loads(proc.stdout)
        assert proc.returncode == 0
        assert row["bound"] == pytest.approx(1.387e308, rel=1e-3) and row["valid"] is True

    def test_class_check_failure_exits_three(self):
        proc = run("bound", "sin", "0", "3.14159", "convex_q1")
        assert proc.returncode == 3
        assert "class check failed" in proc.stderr

    def test_unknown_function_exits_two(self):
        assert run("bound", "nope", "0", "1", "convex_q1").returncode == 2

    def test_unknown_theorem_exits_two(self):
        # a name of no theorem, and a theorem of the means suite
        for theorem in ("nope", "prop_identric"):
            proc = run("bound", "x2", "0", "1", theorem)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr.startswith(f"hh: unknown bound theorem '{theorem}'; "
                                          "bound theorems: baseline_pm, ")

    def test_interval_outside_domain_exits_two(self):
        assert run("bound", "inv_x", "0", "1", "quasi_q1").returncode == 2

    def test_explicit_exponents(self):
        proc = run("bound", "x2", "0", "1", "convex_holder", "--p", "2", "--q", "2")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["bound"] == pytest.approx(0.11180339887498948, rel=1e-12)

    def test_inconsistent_exponents_exit_two(self):
        assert run("bound", "x2", "0", "1", "convex_holder",
                   "--p", "2", "--q", "3").returncode == 2

    @pytest.mark.parametrize("theorem, exponents", [
        ("convex_q1", ("--q", "3")),
        ("quasi_monotone", ("--q", "0.5", "--p", "7")),
        ("convex_pm", ("--p", "7")),
        ("baseline_pm", ("--p", "7")),
    ])
    def test_exponent_on_theorem_without_one_exits_two(self, theorem, exponents):
        proc = run("bound", "x2", "0", "1", theorem, *exponents)
        assert proc.returncode == 2
        assert "takes no exponent" in proc.stderr

    def test_negative_endpoint_in_exponent_form(self):
        proc = run("bound", "x2", "-1e-3", "1", "convex_q1")
        assert proc.returncode == 0
        assert proc.stdout == run("bound", "x2", "-0.001", "1", "convex_q1").stdout

    @pytest.mark.parametrize("theorem", ["convex_pm", "quasi_pm", "baseline_pm"])
    def test_nan_exponent_exits_two(self, theorem):
        proc = run("bound", "x4", "0", "1", theorem, "--q", "nan")
        assert proc.returncode == 2
        assert proc.stdout == ""


    @pytest.mark.parametrize("theorem, exponents", [
        ("convex_pm", ("--q", "0.5")),
        ("convex_pm", ("--p", "0.5")),
        ("convex_holder", ("--p", "0.5")),
        ("convex_holder", ("--q", "0.5")),
        ("convex_holder", ("--q", "inf")),
    ])
    def test_bad_exponent_exits_two_before_the_class_check(self, theorem, exponents):
        # |f''| = sin is not convex on [0, 3]: the class check would exit 3
        proc = run("bound", "sin", "0", "3", theorem, *exponents)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "class check" not in proc.stderr

    def test_infinite_exponent_named_on_a_pair(self):
        proc = run("bound", "x2", "0", "1", "convex_holder", "--q", "inf")
        assert proc.returncode == 2
        assert "got inf" in proc.stderr

    def test_infinite_power_mean_exponent_is_the_max(self):
        proc = run("bound", "x2", "0", "1", "convex_pm", "--q", "inf")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["bound"] == pytest.approx(1.0 / 12.0, rel=1e-15)

    @pytest.mark.parametrize("command, tail", [("bound", ("convex_q1",)),
                                               ("certify", ("1e-3",))])
    @pytest.mark.parametrize("a, b", [("-1.7e308", "1.7e308"), ("1e308", "1.7e308")])
    def test_overflowing_interval_exits_two(self, command, tail, a, b):
        proc = run(command, "x2", a, b, *tail)
        assert proc.returncode == 2
        assert "overflows" in proc.stderr


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

    def test_equal_arguments(self):
        row = json.loads(run("means", "5", "5").stdout)
        assert all(row[k] == 5.0 for k in "AGHIL")
        assert row["chain"] is True

    def test_nonpositive_arguments_exit_two(self):
        assert run("means", "-1", "2").returncode == 2
        assert run("means", "0", "2").returncode == 2

    def test_huge_pair_whose_product_overflows(self):
        proc = run("means", "1e200", "1e201")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["G"] == 3.1622776601683794e+200
        assert row["H"] == pytest.approx(2e201 / 11.0, rel=1e-15)
        assert row["chain"] is True

    def test_tiny_pair_whose_product_underflows(self):
        proc = run("means", "1e-200", "1e-190")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["G"] == pytest.approx(1e-195, rel=1e-15)
        assert row["H"] == pytest.approx(2e-200 / (1.0 + 1e-10), rel=1e-15)
        assert row["chain"] is True

    @pytest.mark.parametrize("a, b, means", [
        # a + b overflows: A and H take their fallback forms
        ("1e308", "1.7e308", {"A": 1.35e308, "H": 1.2592592592592593e308,
                              "I": 1.3346493654114548e308}),
        # b ln b would overflow; I never forms it
        ("1e300", "1.7e308", {"I": 6.253951197094258e307}),
    ], ids=["sum-overflows", "b-ln-b-overflows"])
    def test_pair_near_the_top_of_the_float_range(self, a, b, means):
        # the expected values are the mpmath means, correctly rounded
        proc = run("means", a, b)
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["chain"] is True
        for key, value in means.items():
            assert row[key] == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("a, b", [("7.3", "7.3000001"), ("3", "3.0000000003"),
                                      ("1e6", "1.000000001e6")])
    def test_close_pair(self, a, b):
        proc = run("means", a, b)
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["chain"] is True
        assert float(a) <= row["L"] <= float(b)
        assert float(a) <= row["I"] <= float(b)


class TestCertifyCommand:
    def test_square(self):
        proc = run("certify", "x2", "0", "1", "1e-6")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert set(row) == {"estimate", "error_radius", "n", "oracle_value", "enclosed",
                            "theorem", "truncation_radius", "rounding_radius"}
        assert row["enclosed"] is True
        assert row["error_radius"] <= 1e-6
        assert abs(row["estimate"] - 1.0 / 3.0) <= row["error_radius"] + 1e-10

    def test_reciprocal(self):
        proc = run("certify", "inv_x", "1", "2", "1e-8")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["enclosed"] is True
        assert abs(row["estimate"] - 0.6931471805599453) <= 1e-8

    def test_zero_tolerance_exits_two(self):
        assert run("certify", "x2", "0", "1", "0").returncode == 2

    def test_unclassified_function_exits_three(self):
        assert run("certify", "sin", "0", "6", "1e-6").returncode == 3

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
    def test_names_the_rule_and_both_radius_parts(self, args, theorem, n):
        proc = run("certify", *args)
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
    def test_large_derivative_values_keep_their_class(self, args):
        # the class slack scales with the sample: rounding noise in values
        # far above 1 refutes no class, so the first rule certifies
        proc = run("certify", *args)
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

    def test_tolerance_below_every_grid_fails_fast(self):
        # exp over [0, 700]: the rounding slack of the f'''' sums at n = 1
        # already puts the radius at 2^20 panels above 1e-6
        proc = run("certify", "exp", "0", "700", "1e-6")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "is at least" in proc.stderr and "n=1)" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [("inv_x", "1", "2", "1e-12"), ("exp", "-1", "1", "1e-11")])
    def test_tight_rungs_enclose(self, args):
        proc = run("certify", *args)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["enclosed"] is True

    @pytest.mark.parametrize("args", [("x_5_2", "1", "2", "1e-14"), ("inv_x", "1", "2", "1e-8")])
    def test_a_miss_past_the_radius_is_not_enclosed(self, args, monkeypatch, capsys):
        # `enclosed` adds the oracle's error estimate to the radius, so the
        # oracle must be asked for a small share of the radius: an estimate
        # moved 1.05 radii away from the oracle value must fail
        asked = []
        oracle = cli.integrate
        monkeypatch.setattr(cli, "integrate",
                            lambda f, iv, tol: asked.append(tol) or oracle(f, iv, tol))
        assert cli.main(["certify", *args]) == 0
        row = json.loads(capsys.readouterr().out)
        assert asked == [min(1e-2 * float(args[-1]), 1e-10, 1e-2 * row["error_radius"])]
        away = math.copysign(1.05 * row["error_radius"], row["estimate"] - row["oracle_value"])
        certify = cli.refine_to_tolerance

        def shifted(*call):
            result = certify(*call)
            return dataclasses.replace(result, estimate=result.estimate + away)

        monkeypatch.setattr(cli, "refine_to_tolerance", shifted)
        assert cli.main(["certify", *args]) == 1
        assert json.loads(capsys.readouterr().out)["enclosed"] is False

    def test_a_zero_radius_still_asks_the_oracle_for_a_positive_tolerance(self, monkeypatch,
                                                                          capsys):
        certify = cli.refine_to_tolerance
        monkeypatch.setattr(cli, "refine_to_tolerance",
                            lambda *call: dataclasses.replace(certify(*call), error_radius=0.0))
        assert cli.main(["certify", "x2", "0", "1", "1e-6"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["error_radius"] == 0.0

    def test_a_subnormal_radius_asks_the_oracle_for_the_least_positive_tolerance(
            self, monkeypatch, capsys):
        # x^2 over [0, 1e-160] certifies with a radius of a few subnormals
        # (4.4e-323), and a hundredth of that rounds to 0, a tolerance the
        # oracle refuses
        asked = []
        oracle = cli.integrate
        monkeypatch.setattr(cli, "integrate",
                            lambda f, iv, tol: asked.append(tol) or oracle(f, iv, tol))
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

    def test_truncation_part_past_the_float_range_doubles_on(self):
        proc = run("certify", "exp", "0", "700", "1e300")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert row["enclosed"] is True
        assert row["n"] > 1 and row["error_radius"] <= 1e300

    def test_a_sum_past_the_float_range_is_an_evaluation_error(self):
        # exp over [700, 709]: no evaluation overflows, the f'''' sum does
        proc = run("certify", "exp", "700", "709", "1e300")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "hh: f'''' is not finite on the grid of n=16\n")

    def test_an_estimate_past_the_float_range_names_the_estimate(self):
        # x^2 over [1e153, 1.3e154]: every read and the radius are finite,
        # and the integral, about 7e461, is not
        proc = run("certify", "x2", "1e153", "1.3e154", "1e300")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "hh: the estimate is not finite on the grid of n=1\n")

    def test_an_estimate_near_the_top_of_the_float_range_certifies(self):
        # x^2 over [1e100, 1e102]: h^5 is past the float range, but the
        # centre starts from T + M = 0 and takes h one factor at a time
        proc = run("certify", "x2", "1e100", "1e102", "1e300")
        row = json.loads(proc.stdout)
        assert (proc.returncode, row["n"], row["theorem"], row["enclosed"]) == (
            0, 1, "corrected_fejer", True)
        assert row["estimate"] == pytest.approx((1e306 - 1e300) / 3, rel=1e-12)

    def test_negative_tolerance_in_exponent_form_reaches_the_certifier(self):
        proc = run("certify", "x2", "0", "1", "-1e-3")
        assert proc.returncode == 2
        assert "tolerance must be positive" in proc.stderr


class TestVerifyCommand:
    def test_identity_suite_passes(self):
        proc = run("verify", "--suite", "identity", "--cases", "2", "--seed", "7")
        assert proc.returncode == 0
        lines = parse_lines(proc.stdout)
        assert lines and all(line["pass"] for line in lines)
        assert all(line["suite"] == "identity" for line in lines)

    def test_json_keys_are_sorted(self):
        proc = run("verify", "--suite", "means", "--cases", "2", "--seed", "3")
        for raw in proc.stdout.splitlines():
            keys = list(json.loads(raw))
            assert keys == sorted(keys)

    def test_schema_fields(self):
        proc = run("verify", "--suite", "convex", "--cases", "1", "--seed", "1")
        for line in parse_lines(proc.stdout):
            assert set(line) == {"suite", "function", "interval", "theorem",
                                 "bound", "gap", "slack", "pass"}

    def test_same_seed_is_byte_identical(self):
        first = run("verify", "--suite", "means", "--cases", "5", "--seed", "42")
        second = run("verify", "--suite", "means", "--cases", "5", "--seed", "42")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_different_seeds_differ(self):
        first = run("verify", "--suite", "means", "--cases", "5", "--seed", "1")
        second = run("verify", "--suite", "means", "--cases", "5", "--seed", "2")
        assert first.stdout != second.stdout

    def test_zero_cases_exit_two(self):
        assert run("verify", "--suite", "all", "--cases", "0").returncode == 2

    def test_unknown_suite_exits_two(self):
        assert run("verify", "--suite", "bogus").returncode == 2

    def test_csv_output(self):
        proc = run("verify", "--suite", "means", "--cases", "2", "--seed", "3", "--csv")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        header = lines[0].split(",")
        assert header == sorted(["suite", "function", "interval", "theorem",
                                 "bound", "gap", "slack", "pass"])
        assert len(lines) > 1

    def test_reader_closing_stdout_early_leaves_no_traceback(self):
        # 50 cases print about 110 kB, more than a pipe buffer holds, so the
        # writer is still writing when the reader goes away
        proc = subprocess.Popen(
            CMD + ["verify", "--suite", "identity", "--cases", "50", "--seed", "7"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        assert json.loads(proc.stdout.readline())["suite"] == "identity"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in stderr

    def test_json_and_csv_flags_conflict(self):
        assert run("verify", "--suite", "means", "--cases", "1",
                   "--json", "--csv").returncode == 2


#: sha256 of json.dumps([exit status, stdout, stderr]) of `hh certify` on
#: the 13 benchmark ladder rungs, five rungs that reach each rule's
#: regime, and four refusals (no class, the floor, the rounding part, the
#: floor at a tolerance far below it); restated when the certificate moved
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
    assert len(out.splitlines()) == 363
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "195f870f59e36476979a9e2ba68b9ba844d71315b4f5de72c8a08fa65e2537b6")


#: a number slot's usual value: a finite float, signed zeros, subnormals
#: and pairs whose difference overflows among them
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]))

#: a number slot's odd value: one that JSON spells otherwise than ``%r``
ODD_NUMBERS = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, True, False]),
                        st.integers(-2**64, 2**64))

#: a name slot's usual value: plain names, quotes, backslashes, control
#: characters, non-ASCII text and lone surrogates
NAMES = st.one_of(
    st.sampled_from(["x2", "convex_q1", "identity", 'q"uote', "back\\slash", "\x00\t\x1f\x7f",
                     "\u00e9\u20ac\U0001f600", "\ud800"]),
    st.text(st.characters(categories=["L", "N", "P", "S", "Z", "C"]), max_size=6),
)

#: a name slot's odd value: not a str
ODD_NAMES = st.one_of(st.none(), st.integers(-3, 3))


def _slot(draw, usual, odd):
    """A slot's value: one in 16 is odd."""
    return draw(odd if draw(st.integers(0, 15)) == 0 else usual)


def _twin(x):
    """An object equal to x but not x: a float copied through its bytes,
    the other signed zero for a zero (equal, but printed otherwise), a str
    rebuilt."""
    if type(x) is float:
        return -x if x == 0.0 else struct.unpack("<d", struct.pack("<d", x))[0]
    if type(x) is str:
        return "".join([x[:1], x[1:]]) if len(x) > 1 else x
    return x


@st.composite
def sweep_rows(draw):
    """Rows with the sweep lines' keys, in runs that share one interval's
    function, gap and endpoint objects, as a sweep's lines do; a run's
    objects may be fresh, the last run's own, or those with one of them
    swapped for its equal twin."""
    def number():
        return _slot(draw, FLOATS, ODD_NUMBERS)

    def name():
        return _slot(draw, NAMES, ODD_NAMES)

    rows, shared = [], None
    for _ in range(draw(st.integers(0, 6))):
        how = draw(st.sampled_from(["fresh", "same", "twin"]))
        if shared is None or how == "fresh":
            shared = [name(), number(), number(), number()]
        elif how == "twin":
            i = draw(st.integers(0, 3))
            shared = [*shared[:i], _twin(shared[i]), *shared[i + 1:]]
        fid, gap, a, b = shared
        for _ in range(draw(st.integers(1, 5))):
            bound = number()
            rows.append({
                "suite": name(), "function": fid, "theorem": name(), "bound": bound,
                "gap": gap, "slack": bound - gap if draw(st.booleans()) else number(),
                "interval": _slot(draw, st.just([a, b]), st.sampled_from([(a, b), [a]])),
                "pass": _slot(draw, st.booleans(), st.sampled_from([0, 1])),
            })
    return rows


def _neighbours(gaps, endpoints):
    """Lines of one function whose gaps and intervals are the given objects."""
    return [{"suite": "convex", "function": "x2", "interval": list(iv), "theorem": "convex_q1",
             "bound": 1.0, "gap": gap, "slack": 1.0 - gap, "pass": True}
            for gap, iv in zip(gaps, endpoints)]


@settings(max_examples=400)
@given(sweep_rows())
@example(_neighbours([0.0, -0.0], [(0.0, 1.0)] * 2))  # equal gaps, printed otherwise
@example(_neighbours([0.5] * 2, [(0.0, 1.0), (-0.0, 1.0)]))  # and endpoints
@example(_neighbours([0.5, _twin(0.5)], [(0.5, 1.0), (_twin(0.5), 1.0)]))  # one value, two objects
def test_sweep_lines_are_the_encoders_bytes(rows):
    assert list(cli._sweep_json(rows)) == [cli._ENCODER.encode(row) + "\n" for row in rows]


def test_rows_with_other_keys_take_the_encoder():
    line = suites._line("convex", "x2", Interval(0.0, 1.0), "convex_q1", 1.0, 0.5, True)
    assert cli._LINE_KEYS == set(line)
    renamed = {("Pass" if k == "pass" else k): v for k, v in line.items()}
    rows = [dict(line, extra=1.0), {k: v for k, v in line.items() if k != "pass"}, renamed,
            {"theorem": "convex_q1", "bound": 1.0, "true_gap": 0.5, "slack": 0.5,
             "valid": True}, line]
    assert list(cli._sweep_json(rows)) == [cli._ENCODER.encode(row) + "\n" for row in rows]


@pytest.mark.parametrize("args", [
    ("bound", "exp", "0", "800", "convex_q1"),
    ("certify", "exp", "0", "800", "1e-6"),
])
def test_overflowing_evaluation_exits_one_without_traceback(args):
    proc = run(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "overflowed" in proc.stderr
    assert "Traceback" not in proc.stderr


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
], ids=["bound-convex", "bound-monotone", "bound-monotone-sin", "bound-baseline",
        "certify"])
def test_class_refusal_names_the_interval(args, refusal):
    proc = run(*args)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"hh: class check failed: {refusal}\n"


def test_startup_loads_the_standard_library_alone_and_no_fractions():
    # hh's start-up: only stdlib modules, and neither fractions nor the
    # decimal it imports
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import hhbounds, hhbounds.cli\n"
        "hhbounds.cli.catalog_by_id()\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps([sorted(new - set(sys.stdlib_module_names) - {'hhbounds'}),\n"
        "                  sorted({'fractions', 'decimal'} & set(sys.modules))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    third_party, deferred = json.loads(proc.stdout)
    assert third_party == []
    assert deferred == []


def test_a_certificate_imports_neither_fractions_nor_decimal():
    # the certificate is closed in floats, so a process that certifies
    # never imports exact rationals
    proc = subprocess.run([sys.executable, "-X", "importtime", *CMD[1:], "certify", "inv_x",
                           "1", "2", "1e-12"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "hhbounds.certifier" in imported
    assert not {"fractions", "decimal"} & imported


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


def test_import_builds_no_parser():
    code = "import hhbounds.cli as cli; print(cli._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
