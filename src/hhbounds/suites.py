"""Named verification sweeps shared by the CLI and the test suite.

Each sweep walks the built-in catalog (window first, then seeded random
subintervals), evaluates one family of checks, and yields schema-stable
lines: suite, function, interval, theorem, bound, gap, slack, pass.  For
bound families pass means slack >= -1e-9; for the identity sweep it means
|slack| stays below the residual tolerance.  The bound table (``SWEEPS``)
names each theorem's class hypothesis from ``oracle``; the sweeps and the
single reports (``build_bound_report``) both read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import ModuleType

from . import bounds_convex as bc
from . import bounds_quasiconvex as bq
from .core import (
    VALIDITY_TOL,
    BoundReport,
    ConjugatePair,
    DomainError,
    HypothesisError,
    Interval,
    TestFunction,
    TheoremId,
    builtin_catalog,
)
from .bounds_quasiconvex import Monotonicity
from .identity import identity_lhs, identity_rhs
from .means import (
    all_means,
    chain_check,
    check_prop_identric,
    check_prop_monomial_pm,
    check_prop_monomial_q1,
    check_prop_monomial_quasi,
    check_prop_reciprocal_pm,
    check_prop_reciprocal_quasi,
    lp_monotone_nondecreasing,
    lp_values_on_grid,
)
from .oracle import CONVEX_D1, CONVEX_D2, QUASICONVEX_D2, Hypothesis, _grid, midpoint_gap
from .rng import SplitMix64

SUITE_NAMES = ("identity", "convex", "quasiconvex", "means", "all")

RESIDUAL_TOL = 1e-9
GAP_TOL = 1e-10

_SALT = {
    "identity": 0x1D5EED,
    "convex": 0xC07F5EED,
    "quasiconvex": 0x9A5EED,
    "means": 0x3EA5EED,
}


@dataclass(frozen=True)
class CheckLine:
    suite: str
    function: str
    interval: Interval
    theorem: str
    bound: float
    gap: float
    slack: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "function": self.function,
            "interval": [self.interval.a, self.interval.b],
            "theorem": self.theorem,
            "bound": self.bound,
            "gap": self.gap,
            "slack": self.slack,
            "pass": self.passed,
        }


def _line_from_report(suite: str, report: BoundReport) -> CheckLine:
    return CheckLine(
        suite=suite,
        function=report.function_id,
        interval=report.interval,
        theorem=report.theorem_id.value,
        bound=report.bound,
        gap=report.true_gap,
        slack=report.slack,
        passed=report.valid,
    )


def _case_intervals(fn: TestFunction, cases: int, rng: SplitMix64) -> list[Interval]:
    return [fn.window] + [rng.subinterval(fn.window) for _ in range(cases)]


def identity_suite(cases: int, seed: int) -> list[CheckLine]:
    """Residual of the kernel identity over the catalog and random subintervals."""
    rng = SplitMix64(seed ^ _SALT["identity"])
    lines = []
    for fn in builtin_catalog():
        for iv in _case_intervals(fn, cases, rng):
            lhs = identity_lhs(fn, iv, GAP_TOL)
            rhs = identity_rhs(fn, iv, GAP_TOL)
            slack = rhs - lhs
            lines.append(CheckLine(
                suite="identity", function=fn.id, interval=iv, theorem="identity",
                bound=rhs, gap=lhs, slack=slack, passed=abs(slack) <= RESIDUAL_TOL))
    return lines


class Exponent(Enum):
    """How a bound's exponent is chosen; its formula takes it as a fourth argument."""

    NONE = "none"
    PAIR = "conjugate pair (p, q), default (2, 2)"
    Q = "q >= 1, default 2"
    DIRECTION = "sampled monotone direction of |f''|"


@dataclass(frozen=True)
class BoundRow:
    """One bound theorem: hypothesis, formula and exponent.

    The formula is ``module.<formula>``, looked up when called, applied to
    the interval and the endpoint magnitudes of the hypothesis's derivative.
    ``draw`` is the range the sweep draws q from for PAIR and Q exponents.
    """

    theorem: TheoremId
    hypothesis: Hypothesis
    module: ModuleType
    formula: str
    exponent: Exponent = Exponent.NONE
    draw: tuple[float, float] | None = None


#: the bound theorems, grouped by sweep in output order; a function joins a
#: sweep when its window passes the first row's hypothesis
SWEEPS: dict[str, tuple[BoundRow, ...]] = {
    "convex": (
        BoundRow(TheoremId.CONVEX_Q1, CONVEX_D2, bc, "bound_convex_q1"),
        BoundRow(TheoremId.CONVEX_HOLDER, CONVEX_D2, bc, "bound_convex_holder",
                 Exponent.PAIR, (1.25, 4.0)),
        BoundRow(TheoremId.CONVEX_PM, CONVEX_D2, bc, "bound_convex_powermean",
                 Exponent.Q, (1.0, 4.0)),
        BoundRow(TheoremId.BASELINE_Q1, CONVEX_D1, bc, "baseline_first_derivative"),
        BoundRow(TheoremId.BASELINE_PM, CONVEX_D1, bc, "baseline_first_derivative",
                 Exponent.Q, (1.0, 4.0)),
    ),
    "quasiconvex": (
        BoundRow(TheoremId.QUASI_Q1, QUASICONVEX_D2, bq, "bound_quasi_q1"),
        BoundRow(TheoremId.QUASI_HOLDER, QUASICONVEX_D2, bq, "bound_quasi_holder",
                 Exponent.PAIR, (1.25, 4.0)),
        BoundRow(TheoremId.QUASI_PM, QUASICONVEX_D2, bq, "bound_quasi_powermean",
                 Exponent.Q, (1.0, 4.0)),
        BoundRow(TheoremId.QUASI_MONOTONE, QUASICONVEX_D2, bq, "bound_quasi_monotone",
                 Exponent.DIRECTION),
    ),
}

BOUND_ROWS = {row.theorem: row for rows in SWEEPS.values() for row in rows}

BOUND_THEOREMS = tuple(sorted(t.value for t in BOUND_ROWS))


def monotone_direction(fn: TestFunction, iv: Interval) -> Monotonicity | None:
    """Monotonicity direction of |f''| sampled at 65 evenly spaced points of
    iv (the oracle's grid, ends included), or None if mixed."""
    gs = [abs(fn.d2(x)) for x in _grid(iv, 65)]
    tol = 1e-12 * max(1.0, max(gs))
    if all(hi >= lo - tol for lo, hi in zip(gs, gs[1:])):
        return Monotonicity.INCREASING
    if all(hi <= lo + tol for lo, hi in zip(gs, gs[1:])):
        return Monotonicity.DECREASING
    return None


def _resolve_pair(q: float | None, p: float | None) -> ConjugatePair:
    if q is None and p is None:
        return ConjugatePair(2.0, 2.0)
    if q is not None and p is not None:
        return ConjugatePair(p, q)
    if q is not None:
        return ConjugatePair.from_q(q)
    return ConjugatePair.from_p(p)


def _exponent(row: BoundRow, fn: TestFunction, iv: Interval,
              q: float | None, p: float | None):
    """The row's exponent from q and p, or their defaults when both are None;
    for DIRECTION, the sampled direction, None when mixed."""
    if row.exponent is Exponent.PAIR:
        return _resolve_pair(q, p)
    if row.exponent is Exponent.Q:
        return 2.0 if q is None else q
    if row.exponent is Exponent.DIRECTION:
        return monotone_direction(fn, iv)
    return None


def _bound(row: BoundRow, fn: TestFunction, iv: Interval, exponent,
           endpoints: dict) -> float:
    """The row's formula on iv; ``endpoints`` caches each derivative's
    endpoint magnitudes on iv, so each is evaluated once per interval."""
    d = row.hypothesis.derivative
    if d not in endpoints:
        ev = getattr(fn, d)
        endpoints[d] = (abs(ev(iv.a)), abs(ev(iv.b)))
    args = endpoints[d] if row.exponent is Exponent.NONE else (*endpoints[d], exponent)
    return getattr(row.module, row.formula)(iv, *args)


def bound_suite(name: str, cases: int, seed: int) -> list[CheckLine]:
    """Validity sweep of the bound rows of ``SWEEPS[name]``.

    A row's hypothesis is checked once, on the function's window: the
    classes restrict to subintervals (and convex nonnegative |f'| stays
    convex under any power q >= 1, so one |f'| check serves both
    baselines).  The monotone row is left out where |f''| is sampled as
    mixed.  Each row's q is drawn on every interval, even for a row left out.
    """
    rows = SWEEPS[name]
    rng = SplitMix64(seed ^ _SALT[name])
    lines = []
    for fn in builtin_catalog():
        first = rows[0].hypothesis
        if not first.check(fn, fn.window):
            continue
        holds = {h: h is first or h.check(fn, fn.window)
                 for h in dict.fromkeys(row.hypothesis for row in rows)}
        for iv in _case_intervals(fn, cases, rng):
            qs = [None if row.draw is None else rng.uniform(*row.draw) for row in rows]
            gap = midpoint_gap(fn, iv, GAP_TOL)
            endpoints: dict = {}
            for row, q in zip(rows, qs):
                if not holds[row.hypothesis]:
                    continue
                exponent = _exponent(row, fn, iv, q, None)
                if row.exponent is Exponent.DIRECTION and exponent is None:
                    continue
                bound = _bound(row, fn, iv, exponent, endpoints)
                slack = bound - gap
                lines.append(CheckLine(
                    suite=name, function=fn.id, interval=iv, theorem=row.theorem.value,
                    bound=bound, gap=gap, slack=slack, passed=slack >= -VALIDITY_TOL))
    return lines


def means_suite(cases: int, seed: int) -> list[CheckLine]:
    """Mean-chain, p-logarithmic monotonicity, and the six gap inequalities."""
    rng = SplitMix64(seed ^ _SALT["means"])
    lines = []
    for _ in range(cases):
        while True:
            x, y = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
            a, b = (x, y) if x < y else (y, x)
            if b - a >= 0.05:
                break
        iv = Interval(a, b)
        n = rng.choice((-4, -3, -2, 3, 4, 5, 6))
        q = rng.uniform(1.05, 4.0)
        q_quasi = rng.uniform(1.0, 4.0)
        pair = ConjugatePair.from_q(q)

        m = all_means(a, b)
        lines.append(CheckLine(
            suite="means", function="pair", interval=iv, theorem="means_chain",
            bound=m["A"], gap=m["H"], slack=m["A"] - m["H"],
            passed=chain_check(a, b)))
        lp = lp_values_on_grid(a, b)
        lines.append(CheckLine(
            suite="means", function="pair", interval=iv, theorem="lp_monotone",
            bound=lp[-1], gap=lp[0], slack=lp[-1] - lp[0],
            passed=lp_monotone_nondecreasing(a, b)))
        for report in (
            check_prop_monomial_q1(a, b, n),
            check_prop_identric(a, b, pair),
            check_prop_monomial_pm(a, b, n, q),
            check_prop_reciprocal_pm(a, b, q),
            check_prop_reciprocal_quasi(a, b, q_quasi),
            check_prop_monomial_quasi(a, b, n, pair),
        ):
            lines.append(_line_from_report("means", report))
    return lines


def run_suite(name: str, cases: int, seed: int) -> list[CheckLine]:
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}")
    if cases < 1:
        raise DomainError(f"need at least one case, got {cases}")
    if name == "identity":
        return identity_suite(cases, seed)
    if name in SWEEPS:
        return bound_suite(name, cases, seed)
    if name == "means":
        return means_suite(cases, seed)
    lines = []
    for sub in ("identity", "convex", "quasiconvex", "means"):
        lines.extend(run_suite(sub, cases, seed))
    return lines


# --- single bound reports (CLI `bound` command) ---------------------------

def build_bound_report(fn: TestFunction, iv: Interval, theorem: str,
                       q: float | None = None, p: float | None = None) -> BoundReport:
    """Evaluate one named bound on one catalog function and interval.

    Requires the theorem's class hypothesis (``Hypothesis.require``), so
    raises HypothesisError when the sample refutes it and DomainError for
    an interval outside the function's domain; also HypothesisError when
    the monotone theorem's |f''| is sampled as mixed, and DomainError for
    unknown theorems, bad exponents, q or p given to a theorem that takes
    no exponent, or p given to a power-mean theorem.
    """
    try:
        tid = TheoremId(theorem)
    except ValueError:
        raise DomainError(f"unknown theorem {theorem!r}") from None
    row = BOUND_ROWS.get(tid)
    if row is None:
        raise DomainError(f"{theorem!r} is not a bound theorem")
    if row.exponent in (Exponent.NONE, Exponent.DIRECTION) and (q is not None or p is not None):
        raise DomainError(f"{theorem!r} takes no exponent; drop q and p")
    if row.exponent is Exponent.Q and p is not None:
        raise DomainError(f"{theorem!r} takes no exponent p; give q alone")
    row.hypothesis.require(fn, iv)
    exponent = _exponent(row, fn, iv, q, p)
    if row.exponent is Exponent.DIRECTION and exponent is None:
        raise HypothesisError(f"class check failed: |f''| of {fn.id!r} "
                              f"is not monotone on [{iv.a}, {iv.b}]")
    bound = _bound(row, fn, iv, exponent, {})
    gap = midpoint_gap(fn, iv, GAP_TOL)
    if row.exponent is Exponent.DIRECTION:
        exponent = None  # a report's exponent is numeric; the direction is not kept
    return BoundReport.from_values(tid, fn.id, iv, bound, gap, exponent=exponent)
