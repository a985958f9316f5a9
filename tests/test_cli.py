import json
import subprocess
import sys

import pytest

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

    def test_broken_chain_exits_one(self):
        # A = (a + b)/2 overflows near the top of the float range
        proc = run("means", "1e308", "1.7e308")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["chain"] is False


class TestCertifyCommand:
    def test_square(self):
        proc = run("certify", "x2", "0", "1", "1e-6")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)
        assert set(row) == {"estimate", "error_radius", "n", "oracle_value", "enclosed"}
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
        assert run("certify", "sin", "0", "3.0", "1e-6").returncode == 3

    @pytest.mark.parametrize("args", [("inv_x", "1", "2", "1e-12"), ("exp", "-1", "1", "1e-11")])
    def test_tight_rungs_enclose(self, args):
        proc = run("certify", *args)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["enclosed"] is True

    def test_tolerance_below_the_rounding_floor_exits_one(self):
        proc = run("certify", "affine", "0", "2", "1e-16")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "rounding part" in proc.stderr
        assert "Traceback" not in proc.stderr

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
])
def test_overflowing_evaluation_exits_one_without_traceback(args):
    proc = run(*args)
    assert proc.returncode == 1
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
    (("certify", "sin", "0", "3", "1e-6"),
     "|f''| of 'sin' is not quasi-convex on [0.0, 3.0]"),
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
