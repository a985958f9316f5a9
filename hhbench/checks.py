"""Output checkers: each takes one operation's input and output and returns
the list of problems found against the exact references (empty = passed).
"""

from __future__ import annotations

import json

import reference as ref
from workloads import Query, Rung

#: absolute tolerance on gaps and on bound validity
GAP_TOL = 1e-9

#: relative tolerance on closed-form values (q = 1 bounds, means)
REL_TOL = 1e-12

#: a known rounding miss of a ladder rung exceeds the radius by at most this
#: share of it (the largest seen is 0.0335)
ROUNDING_MISS_SHARE = 0.05

_CATALOG_SUITES = ("identity", "convex", "quasiconvex")


def _close(x: float, exact, rel: float = REL_TOL) -> bool:
    return abs(x - exact) <= rel * abs(exact)


def _check_bound(problems: list[str], theorem: str, bound: float, gap, family_q1) -> None:
    if bound < gap - GAP_TOL:
        problems.append(f"{theorem}: bound {bound!r} below exact gap {float(gap)!r}")
    if theorem in ref.Q1_EXACT:
        if not _close(bound, family_q1):
            problems.append(f"{theorem}: bound {bound!r} differs from q=1 formula "
                            f"{float(family_q1)!r}")
    elif bound < family_q1 * (1 - REL_TOL):
        problems.append(f"{theorem}: bound {bound!r} below its family's q=1 bound "
                        f"{float(family_q1)!r}")


def _monomial_scale(label: str, a: float, b: float) -> float:
    """Size of the terms whose difference is a monomial gap, for its tolerance."""
    if not label.startswith("x^"):
        return 0.0
    n = int(label[2:])
    return max(a ** n, b ** n)


def check_verify_line(line: dict) -> list[str]:
    """Check one line of `hh verify` output."""
    problems = []
    suite, theorem, fid = line["suite"], line["theorem"], line["function"]
    a, b = line["interval"]
    gap, bound = line["gap"], line["bound"]
    if not line["pass"]:
        problems.append("line reports pass: false")
    if suite in _CATALOG_SUITES:
        exact = ref.signed_gap(fid, a, b)
        if suite == "identity":
            for name, value in (("lhs", gap), ("rhs", bound)):
                if abs(value - exact) > GAP_TOL:
                    problems.append(f"identity {name} {value!r} vs exact {float(exact)!r}")
            return problems
        exact = abs(exact)
        if abs(gap - exact) > GAP_TOL:
            problems.append(f"gap {gap!r} vs exact {float(exact)!r}")
        _check_bound(problems, theorem, bound, exact,
                     ref.family_q1_bound(theorem, fid, a, b))
        return problems
    if theorem == "means_chain":
        pairs = ((gap, ref.harmonic(a, b)), (bound, ref.arithmetic(a, b)))
    elif theorem == "lp_monotone":
        pairs = ((gap, ref.p_logarithmic(a, b, -5)), (bound, ref.p_logarithmic(a, b, 10)))
    else:
        exact = ref.means_gap(fid, a, b)
        if abs(gap - exact) > GAP_TOL + REL_TOL * _monomial_scale(fid, a, b):
            problems.append(f"{theorem}: gap {gap!r} vs exact {float(exact)!r}")
        _check_bound(problems, theorem, bound, exact,
                     ref.means_family_q1_bound(theorem, fid, a, b))
        return problems
    for value, exact in pairs:
        if not _close(value, exact):
            problems.append(f"{theorem}: mean {value!r} vs exact {float(exact)!r}")
    return problems


def check_verify_output(text: str, rc: int) -> list[list[str]]:
    """Problems of each line of one `hh verify` command, in order."""
    results = [check_verify_line(json.loads(row)) for row in text.splitlines()]
    all_pass = not any(results)
    if (rc == 0) != all_pass:
        # the exit status must agree with the lines; blame every line
        results = [r + [f"exit status {rc} disagrees with the lines"] for r in results]
    return results


def _certificate_row(text: str) -> dict | None:
    rows = text.splitlines()
    return json.loads(rows[0]) if len(rows) == 1 else None


def check_certificate(rung: Rung, rc: int, text: str) -> list[str]:
    """Check one `hh certify` output against the exact integral."""
    if rc != 0:
        problems = [f"exit status {rc}"]
    else:
        problems = []
    row = _certificate_row(text)
    if row is None:
        return problems + [f"expected one output row, got {len(text.splitlines())}"]
    exact = ref.integral(rung.function, float(rung.a), float(rung.b))
    miss = abs(row["estimate"] - exact)
    if miss > row["error_radius"]:
        problems.append(f"estimate misses the integral by {float(miss):.3g}, "
                        f"radius {row['error_radius']:.3g}")
    if row["error_radius"] > float(rung.tol):
        problems.append(f"radius {row['error_radius']!r} above tolerance {rung.tol}")
    if not row["enclosed"]:
        problems.append("certificate reports enclosed: false")
    return problems


def is_rounding_miss(rung: Rung, rc: int, text: str, expected_rc: int) -> bool:
    """True when a failed certificate shows the known rounding miss and nothing else.

    Its radius is within the tolerance, the estimate misses the exact
    integral by at most (1 + ROUNDING_MISS_SHARE) times the radius, and it
    exits with ``expected_rc``: 0 saying it encloses, or 1 saying it does not.
    """
    row = _certificate_row(text)
    if row is None or rc != expected_rc or row["enclosed"] != (rc == 0):
        return False
    radius = row["error_radius"]
    miss = abs(row["estimate"] - ref.integral(rung.function, float(rung.a), float(rung.b)))
    return radius <= float(rung.tol) and miss <= radius * (1 + ROUNDING_MISS_SHARE)


def check_query(query: Query, outcome: dict) -> list[str]:
    """Check one bound query's outcome: a report, or a refusal by the class check."""
    expected = ref.hypothesis_holds(query.theorem, query.function, query.a, query.b)
    kind = outcome["kind"]
    if kind == "refused":
        return [] if not expected else ["refused a query whose hypothesis holds"]
    if kind != "report":
        return [f"raised {outcome.get('type')}"]
    if not expected:
        return ["reported on a query whose hypothesis fails"]
    problems = []
    exact = abs(ref.signed_gap(query.function, query.a, query.b))
    if abs(outcome["true_gap"] - exact) > GAP_TOL:
        problems.append(f"gap {outcome['true_gap']!r} vs exact {float(exact)!r}")
    if not outcome["valid"]:
        problems.append("report says valid: false")
    _check_bound(problems, query.theorem, outcome["bound"], exact,
                 ref.family_q1_bound(query.theorem, query.function, query.a, query.b))
    return problems
