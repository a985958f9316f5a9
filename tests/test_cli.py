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
    ])
    def test_exponent_on_theorem_without_one_exits_two(self, theorem, exponents):
        proc = run("bound", "x2", "0", "1", theorem, *exponents)
        assert proc.returncode == 2
        assert "takes no exponent" in proc.stderr


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

    def test_json_and_csv_flags_conflict(self):
        assert run("verify", "--suite", "means", "--cases", "1",
                   "--json", "--csv").returncode == 2
