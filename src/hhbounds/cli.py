"""Batch front-end: verification sweeps, bound reports, means, certificates.

Output is machine-readable: one JSON object per line with sorted keys, or
CSV (same keys as header row) with --csv.  Identical seeds produce
byte-identical output.  ``hh verify`` renders its sweep lines from one
format string, with each interval's function, gap and endpoints rendered
once, and prints the very bytes ``json.dumps(line, sort_keys=True)``
gives for each line.  Exit codes: 0 pass, 1 property violation (also
non-convergence, an evaluation that fails or overflows, or a reader that
closes stdout early), 2 usage/domain error, 3 hypothesis-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .certifier import CertTheorem, refine_to_tolerance
from .core import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    HypothesisError,
    Interval,
    catalog_by_id,
)
from .means import all_means, chain_check
from .oracle import integrate
from .suites import BOUND_THEOREMS, SUITE_NAMES, build_bound_report, run_suite

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3

#: the rules `hh certify` tries, in order, until one's class check passes:
#: Fejer's two-sided bracket on the corrected midpoint rule, then on the
#: plain one, then the paper's convex and quasi-convex rules
_CERTIFY_RULES = (CertTheorem.CORRECTED, CertTheorem.FEJER, CertTheorem.CONVEX_Q1,
                  CertTheorem.QUASI_Q1)

#: a negative number, exponent form included; argparse's own matcher has
#: no exponent form and so reads "-1e-3" as an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

#: what ``json.dumps(obj, sort_keys=True)`` would build anew for every row
#: and every CSV cell, built once; no row holds itself, so it skips the
#: circular-reference check
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)

#: the keys of a sweep line (``suites._line``)
_LINE_KEYS = frozenset(("bound", "function", "gap", "interval", "pass", "slack", "suite",
                        "theorem"))

#: a sweep line as ``_ENCODER`` renders it, keys sorted: the bound, the
#: shared part (``_SHARED``), pass, slack and the suite and theorem names
_LINE = '{"bound": %r, %s%s, "slack": %r, "suite": %s, "theorem": %s}\n'

#: the part of a sweep line that the lines of one interval share
_SHARED = '"function": %s, "gap": %r, "interval": [%r, %r], "pass": '


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the hh command line that every ``main`` call of this
    process shares: built on the first call, not at import, and never
    changed by parsing.  Each subcommand names the function that runs it."""
    parser = argparse.ArgumentParser(
        prog="hh",
        description="Midpoint-rule error bounds, their verification sweeps, "
                    "special means, and certified composite integration.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the output format flags, shared by every subcommand
    formats = argparse.ArgumentParser(add_help=False)
    fmt = formats.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON lines output (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV output, keys as header row")

    v = sub.add_parser("verify", parents=[formats], help="run a named verification sweep")
    v.add_argument("--suite", required=True, choices=SUITE_NAMES)
    v.add_argument("--cases", type=int, default=50,
                   help="random subintervals per function (>= 1)")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(run=_cmd_verify)

    b = sub.add_parser("bound", parents=[formats],
                       help="evaluate one bound on a catalog function")
    b.add_argument("function", help="catalog function id, e.g. x2, inv_x")
    b.add_argument("a", type=float)
    b.add_argument("b", type=float)
    b.add_argument("theorem", help="one of: " + ", ".join(BOUND_THEOREMS))
    b.add_argument("--q", type=float, help="power-mean or conjugate exponent q")
    b.add_argument("--p", type=float, help="conjugate exponent p")
    b.set_defaults(run=_cmd_bound)

    m = sub.add_parser("means", parents=[formats], help="print the special means of a pair")
    m.add_argument("a", type=float)
    m.add_argument("b", type=float)
    m.set_defaults(run=_cmd_means)

    c = sub.add_parser("certify", parents=[formats],
                       help="composite midpoint integral with error radius")
    c.add_argument("function")
    c.add_argument("a", type=float)
    c.add_argument("b", type=float)
    c.add_argument("tol", type=float)
    c.set_defaults(run=_cmd_certify)

    # no hh option looks like a number, so a negative number is always a value
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _emit(rows: list[dict], as_csv: bool) -> None:
    out = sys.stdout
    if not as_csv:
        for row in rows:
            out.write(_ENCODER.encode(row) + "\n")
        return
    if not rows:
        return
    keys = sorted(rows[0])
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_ENCODER.encode(row[k]) for k in keys])


def _is_finite_float(x) -> bool:
    """Whether x renders as ``%r`` renders it: a float, not a subclass, and
    neither infinite nor NaN, which JSON spells its own way."""
    return type(x) is float and math.isfinite(x)


def _sweep_json(lines: list[dict]) -> Iterator[str]:
    """Yields each sweep line as one JSON line, the bytes of
    ``_ENCODER.encode(line) + "\\n"``.

    A line with exactly ``_LINE_KEYS``, five finite floats, a bool pass and
    str names is rendered from ``_LINE``: floats by ``repr`` and names by
    ``encode_basestring_ascii``, as ``_ENCODER`` renders them.  Its shared
    part is rendered again only when the line does not hold the very
    function, gap and endpoint objects of the part last rendered; the test
    is ``is``, never ``==``, since 0.0 == -0.0.  Any other line goes
    through ``_ENCODER``.
    """
    fid0 = gap0 = a0 = b0 = object()  # the objects ``shared`` renders
    shared = None  # None while those objects do not render as ``_SHARED`` does
    for line in lines:
        if line.keys() == _LINE_KEYS and type(iv := line["interval"]) is list and len(iv) == 2:
            fid, gap, (a, b) = line["function"], line["gap"], iv
            if not (fid is fid0 and gap is gap0 and a is a0 and b is b0):
                fid0, gap0, a0, b0 = fid, gap, a, b
                shared = (_SHARED % (encode_basestring_ascii(fid), gap, a, b)
                          if type(fid) is str and _is_finite_float(gap)
                          and _is_finite_float(a) and _is_finite_float(b) else None)
            bound, slack, passed = line["bound"], line["slack"], line["pass"]
            suite, theorem = line["suite"], line["theorem"]
            if (shared is not None and _is_finite_float(bound) and _is_finite_float(slack)
                    and (passed is True or passed is False)
                    and type(suite) is str and type(theorem) is str):
                yield _LINE % (bound, shared, "true" if passed else "false", slack,
                               encode_basestring_ascii(suite),
                               encode_basestring_ascii(theorem))
                continue
        yield _ENCODER.encode(line) + "\n"


def _lookup_function(name: str):
    fn = catalog_by_id().get(name)
    if fn is None:
        raise DomainError(f"unknown function {name!r}; catalog: "
                          + ", ".join(sorted(catalog_by_id())))
    return fn


def _cmd_verify(args: argparse.Namespace) -> int:
    lines = run_suite(args.suite, args.cases, args.seed)
    if args.csv:
        _emit(lines, True)
    else:
        sys.stdout.writelines(_sweep_json(lines))  # one write per line
    return EXIT_PASS if all(line["pass"] for line in lines) else EXIT_VIOLATION


def _cmd_bound(args: argparse.Namespace) -> int:
    fn = _lookup_function(args.function)
    iv = Interval(args.a, args.b)
    report = build_bound_report(fn, iv, args.theorem, q=args.q, p=args.p)
    _emit([{
        "theorem": report.theorem_id.value,
        "bound": report.bound,
        "true_gap": report.true_gap,
        "slack": report.slack,
        "valid": report.valid,
    }], args.csv)
    return EXIT_PASS if report.valid else EXIT_VIOLATION


def _cmd_means(args: argparse.Namespace) -> int:
    row = all_means(args.a, args.b)
    row["chain"] = chain_check(args.a, args.b)
    _emit([row], args.csv)
    return EXIT_PASS if row["chain"] else EXIT_VIOLATION


def _cmd_certify(args: argparse.Namespace) -> int:
    fn = _lookup_function(args.function)
    iv = Interval(args.a, args.b)
    for theorem in _CERTIFY_RULES:
        try:
            result = refine_to_tolerance(fn, iv, args.tol, theorem)
            break
        except HypothesisError:
            if theorem is _CERTIFY_RULES[-1]:
                raise
    # the oracle's own error estimate is added to the radius (at most tol)
    # below, so it must stay a small share of that radius, or it could hide
    # a miss; a share of a subnormal radius can round to 0, which the oracle
    # refuses
    oracle = integrate(fn.f, iv, max(min(result.error_radius * 1e-2, 1e-10), math.ulp(0.0)))
    enclosed = abs(result.estimate - oracle.value) <= (
        result.error_radius + oracle.est_error)
    _emit([{
        "estimate": result.estimate,
        "error_radius": result.error_radius,
        "n": result.subintervals,
        "oracle_value": oracle.value,
        "enclosed": enclosed,
        "theorem": result.theorem_used.value,
        "truncation_radius": result.truncation_radius,
        "rounding_radius": result.rounding_radius,
    }], args.csv)
    return EXIT_PASS if enclosed else EXIT_VIOLATION


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except HypothesisError as exc:
        print(f"hh: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except DomainError as exc:
        print(f"hh: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, EvaluationError) as exc:
        print(f"hh: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except OverflowError as exc:
        print(f"hh: an evaluation overflowed ({exc})", file=sys.stderr)
        return EXIT_VIOLATION
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the
        # interpreter's final flush of what is still buffered cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VIOLATION
