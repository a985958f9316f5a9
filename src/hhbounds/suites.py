"""Named verification sweeps shared by the CLI and the test suite.

Each sweep walks the built-in catalog (window first, then seeded random
subintervals), evaluates one family of checks, and yields its lines, one
by one, as the rows ``hh verify`` prints: suite, function, interval,
theorem, bound, gap, slack = bound - gap, and pass; a line whose slack is
past the float range is refused (``EvaluationError``).  Every pass reads
``core.slack_is_valid``: for bound families on the slack, for the
identity sweep on the slack and its negation, so |slack| <= 1e-9.  The
bound table (``SWEEPS``) names each theorem's class hypothesis from
``oracle`` and its exponent kind (none, a conjugate pair or a q, each
with the range sweeps draw q from); the sweeps and the single reports
(``build_bound_report``) both read it.  ``Exponent.resolve`` is the one exponent rule: the defaults,
the pair from q, p or both, and the refusal of any exponent a theorem
does not take.  Single reports apply it before the class check, so a bad
exponent is refused before f, f' or f'' is evaluated.  A function joins
a bound sweep when its window passes the first row's hypothesis, and each
row runs on the intervals where its own hypothesis holds, on the window
or else on the interval itself.  The registry ``SUITES`` names every
sweep, in the order ``all`` runs them, with the salt of its seed.
``iter_suite`` streams a sweep's lines as they are computed, and
``run_suite`` is the same lines as a list.  Every draw is computed from
``random.Random.random()`` alone, whose sequence for an int seed the
standard library promises to repeat on every Python version, so a seed
gives the same bytes wherever libm rounds alike.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain
from types import ModuleType

from . import bounds_convex as bc
from . import bounds_quasiconvex as bq
from .core import (
    BoundReport,
    ConjugatePair,
    DomainError,
    EvaluationError,
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
    chain_holds,
    check_prop_identric,
    check_prop_monomial_pm,
    check_prop_monomial_q1,
    check_prop_monomial_quasi,
    check_prop_reciprocal_pm,
    check_prop_reciprocal_quasi,
    lp_values_on_grid,
    nondecreasing,
)
from .oracle import CONVEX_D1, CONVEX_D2, MONOTONE_D2, QUASICONVEX_D2, Hypothesis, midpoint_gap

def _line(suite: str, function: str, iv: Interval, theorem: str,
          bound: float, gap: float, passed: bool) -> dict:
    """One sweep line, as the row ``hh verify`` prints.

    Raises EvaluationError when slack = bound - gap is past the float
    range, as it is when the bound or the gap is: no line holds an
    infinity or a NaN, which JSON cannot spell.
    """
    slack = bound - gap
    if not math.isfinite(slack):
        raise EvaluationError(
            f"the {theorem} line on [{iv.a}, {iv.b}] is past the float range")
    return {"suite": suite, "function": function, "interval": [iv.a, iv.b],
            "theorem": theorem, "bound": bound, "gap": gap, "slack": slack, "pass": passed}


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _subinterval(rng: random.Random, window: Interval, min_width: float) -> Interval:
    """A random subinterval of ``window`` at least ``min_width`` wide: two
    uniform ends, drawn again until they are that far apart."""
    while True:
        x, y = _uniform(rng, window.a, window.b), _uniform(rng, window.a, window.b)
        lo, hi = (x, y) if x < y else (y, x)
        if hi - lo >= min_width:
            return Interval(lo, hi)


def _case_intervals(fn: TestFunction, cases: int, rng: random.Random) -> list[Interval]:
    """The window, then ``cases`` random subintervals at least 5% of it."""
    window = fn.window
    min_width = 0.05 * window.width
    return [window] + [_subinterval(rng, window, min_width) for _ in range(cases)]


def identity_suite(cases: int, rng: random.Random) -> Iterator[dict]:
    """Residual of the kernel identity over the catalog and random subintervals."""
    for fn in builtin_catalog():
        for iv in _case_intervals(fn, cases, rng):
            lhs, rhs = identity_lhs(fn, iv), identity_rhs(fn, iv)
            valid = slack_is_valid(rhs - lhs) and slack_is_valid(lhs - rhs)
            yield _line("identity", fn.id, iv, "identity", rhs, lhs, valid)


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

    The formula is ``module.<formula>``, looked up when a sweep starts or a
    report is built, not on every call, and applied to the interval and the
    endpoint magnitudes of the hypothesis's derivative.
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


def _bound_past_range(theorem: str, iv: Interval) -> EvaluationError:
    """The refusal of a bound table row whose bound is past the float
    range, which bounds nothing: the endpoint values are finite, the
    formula's result is not."""
    return EvaluationError(
        f"the {theorem} bound on [{iv.a}, {iv.b}] is past the float range")


def bound_suite(name: str, cases: int, rng: random.Random) -> Iterator[dict]:
    """Validity sweep of the bound rows of ``SWEEPS[name]``.

    One gating rule serves every row.  A function joins the sweep when its
    window passes the first row's hypothesis.  Each other hypothesis is
    checked once on the window; the classes restrict to subintervals, so
    only where it fails there is it checked again on each interval, and
    its rows are left out where that fails too.  (Convex nonnegative |f'|
    stays convex under any power q >= 1, so one |f'| check serves both
    baselines.)  Each row's q is drawn on every interval, even for a row
    left out.  Each derivative's endpoint magnitudes are read once per
    interval, when the first row that holds there needs them.
    """
    rows = SWEEPS[name]
    # what each row reads that no interval changes, looked up once per
    # sweep: its theorem's name, exponent kind, hypothesis, derivative and
    # formula, the module attribute as the sweep starts
    plan = [(row.theorem.value, row.exponent, row.hypothesis, row.hypothesis.derivative,
             getattr(row.module, row.formula)) for row in rows]
    ranges = [row.exponent.value for row in rows]
    first = rows[0].hypothesis
    isfinite = math.isfinite  # a local: the row loop is hot
    for fn in builtin_catalog():
        if not first.check(fn, fn.window):
            continue
        on_window = {h: h is first or h.check(fn, fn.window)
                     for h in dict.fromkeys(row.hypothesis for row in rows)}
        for iv in _case_intervals(fn, cases, rng):
            qs = [None if span is None else _uniform(rng, *span) for span in ranges]
            # _case_intervals puts the window object itself first
            holds = on_window if iv is fn.window else {
                h: ok or h.check(fn, iv) for h, ok in on_window.items()}
            gap = midpoint_gap(fn, iv)
            a, b = iv.a, iv.b
            ends: dict = {}
            for (theorem, kind, hypothesis, d, formula), q in zip(plan, qs):
                if not holds[hypothesis]:
                    continue
                e = ends.get(d)
                if e is None:
                    ev = getattr(fn, d)
                    e = ends[d] = (abs(ev(a)), abs(ev(b)))
                # a row draws no q when it takes no exponent: Exponent.NONE gives None
                bound = (formula(iv, *e) if q is None else
                         formula(iv, *e, kind.resolve(theorem, q)))
                if not isfinite(bound):
                    raise _bound_past_range(theorem, iv)
                yield _line(name, fn.id, iv, theorem, bound, gap, slack_is_valid(bound - gap))


#: the powers n the means sweep draws for x^n, each as likely
_MEANS_POWERS = (-4, -3, -2, 3, 4, 5, 6)

#: the range the means sweep draws its pairs from, at least 0.05 apart
_MEANS_WINDOW = Interval(0.1, 10.0)


def means_suite(cases: int, rng: random.Random) -> Iterator[dict]:
    """Mean-chain, p-logarithmic monotonicity, and the six gap inequalities.

    The chain and the monotonicity of L_p are decided on the means and the
    L_p values the lines print, each computed once."""
    for _ in range(cases):
        iv = _subinterval(rng, _MEANS_WINDOW, 0.05)
        a, b = iv.a, iv.b
        n = _MEANS_POWERS[int(rng.random() * len(_MEANS_POWERS))]
        q = _uniform(rng, 1.05, 4.0)
        q_quasi = _uniform(rng, 1.0, 4.0)
        pair = ConjugatePair.from_q(q)

        m = all_means(a, b)
        yield _line("means", "pair", iv, "means_chain", m["A"], m["H"], chain_holds(m))
        lp = lp_values_on_grid(a, b)
        yield _line("means", "pair", iv, "lp_monotone", lp[-1], lp[0], nondecreasing(lp))
        for r in (
            check_prop_monomial_q1(a, b, n),
            check_prop_identric(a, b, pair),
            check_prop_monomial_pm(a, b, n, q),
            check_prop_reciprocal_pm(a, b, q),
            check_prop_reciprocal_quasi(a, b, q_quasi),
            check_prop_monomial_quasi(a, b, n, pair),
        ):
            yield _line("means", r.function_id, r.interval, r.theorem_id.value,
                        r.bound, r.true_gap, r.valid)


#: every sweep by name, in the order ``all`` runs them, with the salt that
#: seeds it; a salt fixes its sweep's seeded bytes
SUITES = {"identity": (0x1D5EED, identity_suite),
          "convex": (0xC07F5EED, partial(bound_suite, "convex")),
          "quasiconvex": (0x9A5EED, partial(bound_suite, "quasiconvex")),
          "means": (0x3EA5EED, means_suite)}

SUITE_NAMES = (*SUITES, "all")


def iter_suite(name: str, cases: int, seed: int) -> Iterator[dict]:
    """The rows of sweep ``name`` (or of every sweep, for "all"), yielded as
    each is computed, each sweep drawing from its own generator, seeded
    with seed ^ its salt taken as an unsigned 64-bit int, so seed -1
    draws as 2**64 - 1 (``random.Random`` alone would seed a negative int
    by its absolute value).

    Raises DomainError for an unknown name or cases < 1 at the call,
    before anything is evaluated.
    """
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; suites: " + ", ".join(SUITE_NAMES))
    if cases < 1:
        raise DomainError(f"need at least one case, got {cases}")
    sweeps = SUITES.values() if name == "all" else (SUITES[name],)
    return chain.from_iterable(sweep(cases, random.Random((seed ^ salt) & (2 ** 64 - 1)))
                               for salt, sweep in sweeps)


def run_suite(name: str, cases: int, seed: int) -> list[dict]:
    """The rows of ``iter_suite(name, cases, seed)``, as a list."""
    return list(iter_suite(name, cases, seed))


# --- single bound reports (CLI `bound` command) ---------------------------

def build_bound_report(fn: TestFunction, iv: Interval, theorem: str,
                       q: float | None = None, p: float | None = None) -> BoundReport:
    """Evaluate one named bound on one catalog function and interval.

    Raises DomainError for a name that is not one of ``BOUND_THEOREMS``
    or an exponent the theorem does not take (``Exponent.resolve``),
    before any evaluation.  Then requires the theorem's class hypothesis
    (``Hypothesis.require``), so raises DomainError for an interval
    outside the function's domain and HypothesisError when the sample
    refutes the class, and EvaluationError for a bound past the float
    range.
    """
    row = BOUND_ROWS.get(theorem)  # TheoremId is a str enum: its values hash alike
    if row is None:
        raise DomainError(f"unknown bound theorem {theorem!r}; bound theorems: "
                          + ", ".join(BOUND_THEOREMS))
    theorem = row.theorem.value
    exponent = row.exponent.resolve(theorem, q, p)
    row.hypothesis.require(fn, iv)
    ev = getattr(fn, row.hypothesis.derivative)
    args = (abs(ev(iv.a)), abs(ev(iv.b)))
    formula = getattr(row.module, row.formula)
    bound = formula(iv, *args) if exponent is None else formula(iv, *args, exponent)
    if not math.isfinite(bound):
        raise _bound_past_range(theorem, iv)
    return BoundReport(row.theorem, fn.id, iv, bound, midpoint_gap(fn, iv), exponent)
