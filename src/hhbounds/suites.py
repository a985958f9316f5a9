"""Named verification sweeps shared by the CLI and the test suite.

Each sweep walks the built-in catalog (window first, then seeded random
subintervals), evaluates one family of checks, and yields schema-stable
lines: suite, function, interval, theorem, bound, gap, slack, pass.  For
bound families pass means slack >= -1e-9; for the identity sweep it means
|slack| stays below the residual tolerance.  The bound table (``SWEEPS``)
names each theorem's class hypothesis from ``oracle`` and its exponent
kind (none, a conjugate pair or a q, each with the range sweeps draw q
from); the sweeps and the single reports (``build_bound_report``) both
read it.  ``Exponent.resolve`` is the one exponent rule: the defaults,
the pair from q, p or both, and the refusal of any exponent a theorem
does not take.  Single reports apply it before the class check, so a bad
exponent is refused before f, f' or f'' is evaluated.  A function joins
a bound sweep when its window passes the first row's hypothesis, and each
row runs on the intervals where its own hypothesis holds, on the window
or else on the interval itself.  The registry ``SUITES`` names every
sweep, in the order ``all`` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from types import ModuleType

from . import bounds_convex as bc
from . import bounds_quasiconvex as bq
from .core import (
    BoundReport,
    ConjugatePair,
    DomainError,
    Interval,
    TestFunction,
    TheoremId,
    builtin_catalog,
    power_exponent,
    slack_is_valid,
)
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
from .oracle import CONVEX_D1, CONVEX_D2, MONOTONE_D2, QUASICONVEX_D2, Hypothesis, midpoint_gap
from .rng import SplitMix64

RESIDUAL_TOL = 1e-9

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
    passed: bool

    @property
    def slack(self) -> float:
        return self.bound - self.gap

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
            lhs, rhs = identity_lhs(fn, iv), identity_rhs(fn, iv)
            lines.append(CheckLine(
                suite="identity", function=fn.id, interval=iv, theorem="identity",
                bound=rhs, gap=lhs, passed=abs(rhs - lhs) <= RESIDUAL_TOL))
    return lines


class Exponent(Enum):
    """How a bound takes its exponent: none, a conjugate pair (p, q) or a
    power-mean q.  Each member's value is the range the sweeps draw q from.
    A formula with an exponent takes it as a fourth argument."""

    NONE = None
    PAIR = (1.25, 4.0)
    Q = (1.0, 4.0)

    def resolve(self, theorem: str, q: float | None = None, p: float | None = None):
        """The exponent a bound of this kind uses, from q and p (None when
        not given): a pair from q, from p or from both, default (2, 2); a
        q >= 1, default 2; or None.  The one exponent rule: raises
        DomainError for an exponent the theorem does not take."""
        if self is Exponent.PAIR:
            if p is None:
                return ConjugatePair.from_q(2.0 if q is None else q)
            return ConjugatePair.from_p(p) if q is None else ConjugatePair(p, q)
        if self is Exponent.NONE:
            if q is not None or p is not None:
                raise DomainError(f"{theorem!r} takes no exponent; drop q and p")
            return None
        if p is not None:
            raise DomainError(f"{theorem!r} takes no exponent p; give q alone")
        return power_exponent(2.0 if q is None else q)


@dataclass(frozen=True)
class BoundRow:
    """One bound theorem: hypothesis, formula and exponent.

    The formula is ``module.<formula>``, looked up when called, applied to
    the interval and the endpoint magnitudes of the hypothesis's derivative.
    """

    theorem: TheoremId
    hypothesis: Hypothesis
    module: ModuleType
    formula: str
    exponent: Exponent = Exponent.NONE


#: the bound theorems, grouped by sweep in output order; a function joins a
#: sweep when its window passes the first row's hypothesis
SWEEPS: dict[str, tuple[BoundRow, ...]] = {
    "convex": (
        BoundRow(TheoremId.CONVEX_Q1, CONVEX_D2, bc, "bound_convex_q1"),
        BoundRow(TheoremId.CONVEX_HOLDER, CONVEX_D2, bc, "bound_convex_holder", Exponent.PAIR),
        BoundRow(TheoremId.CONVEX_PM, CONVEX_D2, bc, "bound_convex_powermean", Exponent.Q),
        BoundRow(TheoremId.BASELINE_Q1, CONVEX_D1, bc, "baseline_first_derivative"),
        BoundRow(TheoremId.BASELINE_PM, CONVEX_D1, bc, "baseline_first_derivative", Exponent.Q),
    ),
    "quasiconvex": (
        BoundRow(TheoremId.QUASI_Q1, QUASICONVEX_D2, bq, "bound_quasi_q1"),
        BoundRow(TheoremId.QUASI_HOLDER, QUASICONVEX_D2, bq, "bound_quasi_holder", Exponent.PAIR),
        BoundRow(TheoremId.QUASI_PM, QUASICONVEX_D2, bq, "bound_quasi_powermean", Exponent.Q),
        BoundRow(TheoremId.QUASI_MONOTONE, MONOTONE_D2, bq, "bound_quasi_monotone"),
    ),
}

BOUND_ROWS = {row.theorem: row for rows in SWEEPS.values() for row in rows}

BOUND_THEOREMS = tuple(sorted(t.value for t in BOUND_ROWS))


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

    One gating rule serves every row.  A function joins the sweep when its
    window passes the first row's hypothesis.  Each other hypothesis is
    checked once on the window; the classes restrict to subintervals, so
    only where it fails there is it checked again on each interval, and
    its rows are left out where that fails too.  (Convex nonnegative |f'|
    stays convex under any power q >= 1, so one |f'| check serves both
    baselines.)  Each row's q is drawn on every interval, even for a row
    left out.
    """
    rows = SWEEPS[name]
    rng = SplitMix64(seed ^ _SALT[name])
    lines = []
    for fn in builtin_catalog():
        first = rows[0].hypothesis
        if not first.check(fn, fn.window):
            continue
        on_window = {h: h is first or h.check(fn, fn.window)
                     for h in dict.fromkeys(row.hypothesis for row in rows)}
        for iv in _case_intervals(fn, cases, rng):
            qs = [None if row.exponent.value is None else rng.uniform(*row.exponent.value)
                  for row in rows]
            holds = {h: ok or (iv != fn.window and h.check(fn, iv))
                     for h, ok in on_window.items()}
            gap = midpoint_gap(fn, iv)
            endpoints: dict = {}
            for row, q in zip(rows, qs):
                if not holds[row.hypothesis]:
                    continue
                exponent = row.exponent.resolve(row.theorem.value, q)
                bound = _bound(row, fn, iv, exponent, endpoints)
                lines.append(CheckLine(
                    suite=name, function=fn.id, interval=iv, theorem=row.theorem.value,
                    bound=bound, gap=gap, passed=slack_is_valid(bound - gap)))
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
            bound=m["A"], gap=m["H"], passed=chain_check(a, b)))
        lp = lp_values_on_grid(a, b)
        lines.append(CheckLine(
            suite="means", function="pair", interval=iv, theorem="lp_monotone",
            bound=lp[-1], gap=lp[0], passed=lp_monotone_nondecreasing(a, b)))
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


#: every sweep by name, in the order ``all`` runs them
SUITES = {"identity": identity_suite,
          **{name: partial(bound_suite, name) for name in SWEEPS},
          "means": means_suite}

SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str, cases: int, seed: int) -> list[CheckLine]:
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}")
    if cases < 1:
        raise DomainError(f"need at least one case, got {cases}")
    sweeps = SUITES.values() if name == "all" else (SUITES[name],)
    return [line for sweep in sweeps for line in sweep(cases, seed)]


# --- single bound reports (CLI `bound` command) ---------------------------

def build_bound_report(fn: TestFunction, iv: Interval, theorem: str,
                       q: float | None = None, p: float | None = None) -> BoundReport:
    """Evaluate one named bound on one catalog function and interval.

    Raises DomainError for an unknown theorem or an exponent it does not
    take (``Exponent.resolve``), before any evaluation.  Then requires the
    theorem's class hypothesis (``Hypothesis.require``), so raises
    DomainError for an interval outside the function's domain and
    HypothesisError when the sample refutes the class.
    """
    try:
        tid = TheoremId(theorem)
    except ValueError:
        raise DomainError(f"unknown theorem {theorem!r}") from None
    row = BOUND_ROWS.get(tid)
    if row is None:
        raise DomainError(f"{theorem!r} is not a bound theorem")
    exponent = row.exponent.resolve(theorem, q, p)
    row.hypothesis.require(fn, iv)
    bound = _bound(row, fn, iv, exponent, {})
    return BoundReport(tid, fn.id, iv, bound, midpoint_gap(fn, iv), exponent)
