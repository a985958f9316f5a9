"""Midpoint-rule error bounds from second-derivative convexity.

The central quantity is the midpoint gap |mean value of f - f(midpoint)|
on an interval.  When |f''| (or a power of it) is convex or quasi-convex,
closed-form endpoint bounds control the gap; this package implements the
bounds, verifies them against adaptive-quadrature ground truth, turns them
into a certified composite midpoint integrator, and applies them to
inequalities between the classical two-variable means.

``import hhbounds`` loads no submodule: the first read of an exported name
imports the submodule that defines it (PEP 562), so a caller loads only the
submodules it reads.
"""

import importlib

#: each exported name and the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("bounds_convex", ("baseline_first_derivative", "bound_convex_holder",
                       "bound_convex_powermean", "bound_convex_q1", "power_mean")),
    ("bounds_quasiconvex", ("bound_quasi_holder", "bound_quasi_monotone",
                            "bound_quasi_powermean", "bound_quasi_q1")),
    ("certifier", ("CertifiedIntegral", "CertTheorem", "certify", "integrate_certified",
                   "refine_to_tolerance")),
    ("core", ("BoundReport", "ConjugatePair", "ConvergenceError", "DomainError",
              "EvaluationError", "HypothesisError", "Interval", "TestFunction", "TheoremId",
              "builtin_catalog", "catalog_by_id", "conjugate_of", "polynomial")),
    ("identity", ("identity_lhs", "identity_rhs")),
    ("means", ("all_means", "arithmetic_mean", "chain_check", "check_prop_identric",
               "check_prop_monomial_pm", "check_prop_monomial_q1", "check_prop_monomial_quasi",
               "check_prop_reciprocal_pm", "check_prop_reciprocal_quasi", "geometric_mean",
               "harmonic_mean", "identric_mean", "logarithmic_mean", "p_logarithmic_mean")),
    ("oracle", ("QuadratureResult", "check_convex_abs_d2", "check_quasiconvex_abs_d2",
                "integrate", "midpoint_gap")),
) for name in names}

__all__ = tuple(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Imports the submodule that defines ``name`` and keeps the value here,
    so the next read of ``name`` is a plain attribute read."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
