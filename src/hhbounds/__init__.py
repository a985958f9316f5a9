"""Midpoint-rule error bounds from second-derivative convexity.

The central quantity is the midpoint gap |mean value of f - f(midpoint)|
on an interval.  When |f''| (or a power of it) is convex or quasi-convex,
closed-form endpoint bounds control the gap; this package implements the
bounds, verifies them against adaptive-quadrature ground truth, turns them
into a certified composite midpoint integrator, and applies them to
inequalities between the classical two-variable means.
"""

from .bounds_convex import (
    baseline_first_derivative,
    bound_convex_holder,
    bound_convex_powermean,
    bound_convex_q1,
    power_mean,
)
from .bounds_quasiconvex import (
    bound_quasi_holder,
    bound_quasi_monotone,
    bound_quasi_powermean,
    bound_quasi_q1,
)
from .certifier import (
    CertifiedIntegral,
    CertTheorem,
    certify,
    integrate_certified,
    refine_to_tolerance,
)
from .core import (
    BoundReport,
    ConjugatePair,
    ConvergenceError,
    DomainError,
    EvaluationError,
    HypothesisError,
    Interval,
    TestFunction,
    TheoremId,
    builtin_catalog,
    catalog_by_id,
    conjugate_of,
    polynomial,
)
from .identity import identity_lhs, identity_rhs
from .means import (
    all_means,
    arithmetic_mean,
    chain_check,
    check_prop_identric,
    check_prop_monomial_pm,
    check_prop_monomial_q1,
    check_prop_monomial_quasi,
    check_prop_reciprocal_pm,
    check_prop_reciprocal_quasi,
    geometric_mean,
    harmonic_mean,
    identric_mean,
    logarithmic_mean,
    p_logarithmic_mean,
)
from .oracle import (
    QuadratureResult,
    check_convex_abs_d2,
    check_quasiconvex_abs_d2,
    integrate,
    midpoint_gap,
)

__version__ = "0.1.0"
