import dataclasses
import json
import math
import subprocess
import sys

import pytest

from hhbounds import cli

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

    def test_class_check_failure_exits_three(self):
        proc = run("bound", "sin", "0", "3.14159", "convex_q1")
        assert proc.returncode == 3
        assert "class check failed" in proc.stderr

    def test_unknown_function_exits_two(self):
        assert run("bound", "nope", "0", "1", "convex_q1").returncode == 2

    def test_unknown_theorem_exits_two(self):
        assert run("bound", "x2", "0", "1", "nope").returncode == 2

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
        # f'''' = -0.9375 x^-1.5 is concave, and so nearly linear here that
        # every fine-grid bend is within the class tolerance
        (("x_5_2", "1", "1.001", "1e-14"), "corrected_fejer", 1),
    ])
    def test_names_the_rule_and_both_radius_parts(self, args, theorem, n):
        proc = run("certify", *args)
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert (row["theorem"], row["n"], row["enclosed"]) == (theorem, n, True)
        assert row["error_radius"] >= row["truncation_radius"] + row["rounding_radius"]
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


@pytest.mark.parametrize("args", [
    ("bound", "exp", "0", "800", "convex_q1"),
    ("certify", "exp", "0", "800", "1e-6"),
    # the integrand is a float everywhere, its integral is not
    ("bound", "x2", "1e150", "1.5e150", "convex_q1"),
])
def test_overflowing_evaluation_exits_one_without_traceback(args):
    proc = run(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "overflowed" in proc.stderr
    assert "Traceback" not in proc.stderr


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
    # hh's start-up: only stdlib modules, and fractions (which imports
    # decimal) waits until a certificate needs it
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
