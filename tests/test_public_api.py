"""The names ``hhbounds`` exports: adding or dropping one restates this list."""

import math
import pathlib
import re
import subprocess
import sys
import types

import pytest

import hhbounds

PUBLIC_NAMES = [
    "BoundReport", "CertTheorem", "CertifiedIntegral", "ConjugatePair",
    "ConvergenceError", "DomainError", "EvaluationError", "HypothesisError",
    "Interval", "QuadratureResult", "TestFunction", "TheoremId",
    "all_means", "arithmetic_mean", "baseline_first_derivative",
    "bound_convex_holder", "bound_convex_powermean", "bound_convex_q1",
    "bound_quasi_holder", "bound_quasi_monotone", "bound_quasi_powermean",
    "bound_quasi_q1", "builtin_catalog", "catalog_by_id", "certify", "chain_check",
    "check_convex_abs_d2", "check_prop_identric", "check_prop_monomial_pm",
    "check_prop_monomial_q1", "check_prop_monomial_quasi",
    "check_prop_reciprocal_pm", "check_prop_reciprocal_quasi",
    "check_quasiconvex_abs_d2", "conjugate_of", "geometric_mean",
    "harmonic_mean", "identity_lhs", "identity_rhs", "identric_mean",
    "integrate", "integrate_certified", "logarithmic_mean", "midpoint_gap",
    "p_logarithmic_mean", "polynomial", "power_mean", "refine_to_tolerance",
]


def test_public_names():
    # submodules are attributes of the package once imported; they are not exports
    names = sorted(name for name in dir(hhbounds) if not name.startswith("_")
                   and not isinstance(getattr(hhbounds, name), types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 48


def test_star_import_binds_the_public_names_alone():
    namespace = {}
    exec("from hhbounds import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_each_name_is_its_submodule_s_object():
    for name in PUBLIC_NAMES:
        value = getattr(hhbounds, name)
        assert value.__module__.startswith("hhbounds."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        hhbounds.no_such_name


def test_import_loads_no_submodule():
    code = ("import sys, hhbounds\n"
            "print(sorted(name for name in sys.modules if name.startswith('hhbounds')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['hhbounds']\n"


def test_the_readme_library_example_runs(capsys):
    """The README's one ``python`` block runs as written, prints what its
    comments say, and its certificate encloses ln 2."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    bound, gap, cert_line = capsys.readouterr().out.splitlines()
    assert bound == "0.046875"
    assert gap.startswith("0.0264805")
    cert = namespace["cert"]
    assert cert_line.split()[0] == cert.theorem_used.value == "corrected_fejer"
    assert cert.subintervals == 16
    assert abs(cert.estimate - math.log(2.0)) <= cert.error_radius <= 1e-8
