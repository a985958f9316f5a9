"""Shared domain types: intervals, function models, exponent pairs, reports.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

Evaluator = Callable[[float], float]

#: tolerance on 1/p + 1/q = 1 for conjugate exponent pairs
CONJUGATE_TOL = 1e-12

#: the accuracy of the oracle's mean value, and so of the midpoint gap,
#: the "true gap" every bound is checked against (``oracle.midpoint_gap``)
GAP_TOL = 1e-10

#: slack tolerance when declaring a bound report valid: ten times
#: ``GAP_TOL``, so the gap's quadrature error alone cannot make a true
#: bound invalid
VALIDITY_TOL = 1e-9


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class HypothesisError(RuntimeError):
    """A result was requested for inputs that violate its hypothesis."""


class EvaluationError(RuntimeError):
    """A result computed from evaluations is not finite: an evaluation
    itself, a sum of finite values, or a formula on them (a bound, an
    estimate) past the float range."""


class ConvergenceError(RuntimeError):
    """Adaptive refinement hit its depth or size cap before the tolerance."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a strictly less than b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise DomainError(f"interval requires a < b, got [{self.a}, {self.b}]")
        if not (math.isfinite(self.b - self.a) and math.isfinite(self.a + self.b)):
            # the width and the midpoint would be infinite
            raise DomainError(f"interval [{self.a}, {self.b}] overflows: b - a or a + b "
                              "is not finite")
        mid = 0.5 * (self.a + self.b)
        if not (self.a < mid < self.b):
            # adjacent floats: no representable interior point
            raise DomainError(f"interval [{self.a}, {self.b}] has no interior midpoint")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def contains(self, other: Interval) -> bool:
        return self.a <= other.a and other.b <= self.b


def power_exponent(q: float) -> float:
    """q itself, once checked to be a power-mean or Lp exponent: q >= 1.

    q = inf is allowed: the power mean is then the max.
    """
    if not q >= 1.0:
        raise DomainError(f"power exponent needs q >= 1, got {q}")
    return q


def conjugate_of(p: float) -> float:
    """Conjugate exponent q = p/(p-1), so that 1/p + 1/q = 1.

    Requires a finite p > 1, since inf has the conjugate 1; the map is an
    involution (q's conjugate is p again).
    """
    if not 1.0 < p < math.inf:
        raise DomainError(f"a conjugate exponent must lie in (1, inf), got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class ConjugatePair:
    """Exponent pair (p, q) with p, q > 1 and 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p > 1.0 and self.q > 1.0):
            raise DomainError(f"conjugate pair needs p, q > 1, got ({self.p}, {self.q})")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > CONJUGATE_TOL:
            raise DomainError(f"({self.p}, {self.q}) is not a conjugate pair")

    @classmethod
    def from_p(cls, p: float) -> ConjugatePair:
        return cls(p, conjugate_of(p))

    @classmethod
    def from_q(cls, q: float) -> ConjugatePair:
        return cls(conjugate_of(q), q)


@dataclass(frozen=True)
class TestFunction:
    """An evaluable (f, f', f'') triple, with f'''' when known, over a
    declared domain.

    ``d4`` is None when no f'''' is given; the certifier's corrected rule
    then refuses the function.  ``domain`` is None when the function is
    defined on all reals; bounded domains keep singular functions (1/x,
    ln x) away from their poles.
    ``window`` is the canonical interval that sweeps sample subintervals
    from; for bounded domains it coincides with the domain.  It declares no
    class: whether |f''| is convex or quasi-convex on an interval is decided
    by sampling there (``oracle.Hypothesis``).
    """

    id: str
    f: Evaluator
    d1: Evaluator
    d2: Evaluator
    window: Interval
    domain: Interval | None = None
    d4: Evaluator | None = None

    def __post_init__(self) -> None:
        if self.domain is not None and not self.domain.contains(self.window):
            raise DomainError(f"window of {self.id!r} exceeds its domain")

    def defined_on(self, iv: Interval) -> bool:
        return self.domain is None or self.domain.contains(iv)


class TheoremId(str, Enum):
    """Identifiers for the bound families a report can come from."""

    CONVEX_Q1 = "convex_q1"
    CONVEX_HOLDER = "convex_holder"
    CONVEX_PM = "convex_pm"
    BASELINE_Q1 = "baseline_q1"
    BASELINE_PM = "baseline_pm"
    QUASI_Q1 = "quasi_q1"
    QUASI_MONOTONE = "quasi_monotone"
    QUASI_HOLDER = "quasi_holder"
    QUASI_PM = "quasi_pm"
    PROP_MONOMIAL_Q1 = "prop_monomial_q1"
    PROP_IDENTRIC = "prop_identric"
    PROP_MONOMIAL_PM = "prop_monomial_pm"
    PROP_RECIPROCAL_PM = "prop_reciprocal_pm"
    PROP_RECIPROCAL_QUASI = "prop_reciprocal_quasi"
    PROP_MONOMIAL_QUASI = "prop_monomial_quasi"


def slack_is_valid(slack: float) -> bool:
    """The validity rule of every bound check: bound minus gap is not
    materially negative, slack >= -VALIDITY_TOL."""
    return slack >= -VALIDITY_TOL


@dataclass(frozen=True)
class BoundReport:
    """One bound applied to one function and interval.

    ``slack`` (bound minus true gap) and ``valid`` (``slack_is_valid``) are
    derived from the two.
    """

    theorem_id: TheoremId
    function_id: str
    interval: Interval
    bound: float
    true_gap: float
    exponent: ConjugatePair | float | None = None

    @property
    def slack(self) -> float:
        return self.bound - self.true_gap

    @property
    def valid(self) -> bool:
        return slack_is_valid(self.slack)


def polynomial(coeffs: Sequence[float], *, id: str | None = None,
               window: Interval | None = None) -> TestFunction:
    """Build a TestFunction from polynomial coefficients (constant first).

    Derivatives (f', f'' and f'''') are exact.
    """
    cs = [float(c) for c in coeffs]
    if not cs:
        raise DomainError("need at least one coefficient")
    d1cs = [i * c for i, c in enumerate(cs)][1:]
    d2cs = [i * c for i, c in enumerate(d1cs)][1:]
    d4cs = [i * (i - 1) * (i - 2) * (i - 3) * c for i, c in enumerate(cs)][4:]

    def horner(coefs: list[float]) -> Evaluator:
        def ev(x: float) -> float:
            acc = 0.0
            for c in reversed(coefs):
                acc = acc * x + c
            return acc
        return ev

    return TestFunction(
        id=id or f"poly{len(cs) - 1}",
        f=horner(cs),
        d1=horner(d1cs),
        d2=horner(d2cs),
        window=window or Interval(-1.0, 1.0),
        domain=None,
        d4=horner(d4cs),
    )


@functools.cache
def _catalog() -> tuple[TestFunction, ...]:
    """The catalog, built once per process; its entries are frozen."""
    pos = Interval(0.25, 4.0)
    return (
        TestFunction("x2", lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0,
                     window=Interval(-1.5, 1.5), d4=lambda x: 0.0),
        TestFunction("x3", lambda x: x ** 3, lambda x: 3.0 * x * x, lambda x: 6.0 * x,
                     window=Interval(0.0, 2.0), d4=lambda x: 0.0),
        TestFunction("x4", lambda x: x ** 4, lambda x: 4.0 * x ** 3, lambda x: 12.0 * x * x,
                     window=Interval(-1.5, 1.5), d4=lambda x: 24.0),
        TestFunction("x5", lambda x: x ** 5, lambda x: 5.0 * x ** 4, lambda x: 20.0 * x ** 3,
                     window=Interval(-1.5, 1.5), d4=lambda x: 120.0 * x),
        TestFunction("inv_x", lambda x: 1.0 / x, lambda x: -1.0 / (x * x), lambda x: 2.0 / x ** 3,
                     window=pos, domain=pos, d4=lambda x: 24.0 / x ** 5),
        TestFunction("neg_ln", lambda x: -math.log(x), lambda x: -1.0 / x, lambda x: 1.0 / (x * x),
                     window=pos, domain=pos, d4=lambda x: 6.0 / x ** 4),
        TestFunction("exp", math.exp, math.exp, math.exp,
                     window=Interval(-1.0, 1.0), d4=math.exp),
        TestFunction("affine", lambda x: 3.0 * x + 1.0, lambda x: 3.0, lambda x: 0.0,
                     window=Interval(0.0, 2.0), d4=lambda x: 0.0),
        # |f''| = 3.75*sqrt(x): increasing (quasi-convex) but strictly concave
        TestFunction("x_5_2", lambda x: x ** 2.5, lambda x: 2.5 * x ** 1.5,
                     lambda x: 3.75 * math.sqrt(x),
                     window=pos, domain=pos, d4=lambda x: -0.9375 / x ** 1.5),
        # |f''| = sin on [0, pi] is concave with interior peak: neither class
        TestFunction("sin", math.sin, math.cos, lambda x: -math.sin(x),
                     window=Interval(0.0, math.pi), d4=math.sin),
    )


def builtin_catalog() -> list[TestFunction]:
    """Reference functions with exact closed-form derivatives f', f'' and f''''.

    The positive-domain entries (1/x, -ln x, x^(5/2)) are restricted to
    [1/4, 4] so every evaluator is total on its declared domain.  Each call
    returns a fresh list of the one catalog built per process, so a caller
    that changes the list changes no later call's.
    """
    return list(_catalog())


def catalog_by_id() -> dict[str, TestFunction]:
    """The catalog by id, a fresh dict on each call."""
    return {fn.id: fn for fn in _catalog()}
