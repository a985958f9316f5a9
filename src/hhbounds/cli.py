"""Batch front-end: verification sweeps, bound reports, means, certificates.

Output is machine-readable: by default one JSON object per line with
sorted keys; ``--csv``, which every subcommand takes, is the one format
option: the same keys as a header row, then JSON-encoded cells.
Identical seeds produce
byte-identical output.  ``hh verify`` writes each sweep line as the
sweep yields it (``suites.iter_suite``).  One renderer gives each line's
cells, each the bytes of ``json.dumps(cell)``, with each interval's
function, gap and endpoints rendered once, and each suite and theorem
name once per run; a JSON line is its cells in one f-string
(``_json_lines``), the very bytes ``json.dumps(line, sort_keys=True)``
gives, and ``--csv`` writes the same cells.  A sweep with a line past the
float range stops there: the lines before it are printed, that one never
is, so every printed line is strict JSON.  Exit
codes: 0 pass, 1 property violation (also non-convergence, an evaluation
that fails or overflows, a result past the float range, a sweep line's
included, or a reader that closes stdout early), 2 usage/domain error, 3
hypothesis-check failure.  One table, ``_REFUSALS``, states the exit code
of each refusal that ``main`` reports as ``hh: <message>``.

Importing this module loads ``core`` alone of the package, and building
the parser loads nothing more: each command imports the submodules it
runs when it runs, and ``csv`` only under ``--csv``.  So the library, not
argparse, checks the names: ``suites.iter_suite`` refuses an unknown
``--suite`` and ``suites.build_bound_report`` an unknown theorem, each
listing the names it takes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii

from .core import (
    GAP_TOL,
    ConvergenceError,
    DomainError,
    EvaluationError,
    HypothesisError,
    Interval,
    catalog_by_id,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3

#: the exit code of each refusal ``main`` reports as ``hh: <message>``
_REFUSALS = {HypothesisError: EXIT_HYPOTHESIS, DomainError: EXIT_USAGE,
             ConvergenceError: EXIT_VIOLATION, EvaluationError: EXIT_VIOLATION}

#: a negative number, exponent form included; argparse's own matcher has
#: no exponent form and so reads "-1e-3" as an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

#: the keys of a sweep line, sorted: the CSV header of ``hh verify``
_SWEEP_KEYS = ("bound", "function", "gap", "interval", "pass", "slack", "suite", "theorem")


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

    v = sub.add_parser("verify", help="run a named verification sweep")
    v.add_argument("--suite", required=True, help="sweep name, or all")
    v.add_argument("--cases", type=int, default=50,
                   help="random subintervals per function (>= 1)")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(run=_cmd_verify)

    b = sub.add_parser("bound", help="evaluate one bound on a catalog function")
    b.add_argument("function", help="catalog function id, e.g. x2, inv_x")
    b.add_argument("a", type=float)
    b.add_argument("b", type=float)
    b.add_argument("theorem", help="bound theorem id, e.g. convex_q1, quasi_q1")
    b.add_argument("--q", type=float, help="power-mean or conjugate exponent q")
    b.add_argument("--p", type=float, help="conjugate exponent p")
    b.set_defaults(run=_cmd_bound)

    m = sub.add_parser("means", help="print the special means of a pair")
    m.add_argument("a", type=float)
    m.add_argument("b", type=float)
    m.set_defaults(run=_cmd_means)

    c = sub.add_parser("certify", help="composite midpoint integral with error radius")
    c.add_argument("function")
    c.add_argument("a", type=float)
    c.add_argument("b", type=float)
    c.add_argument("tol", type=float)
    c.set_defaults(run=_cmd_certify)

    # JSON lines are the default output; no hh option looks like a number,
    # so a negative number is always a value
    for subparser in sub.choices.values():
        subparser.add_argument("--csv", action="store_true",
                               help="CSV output, keys as header row")
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _write_csv(keys: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    """Writes ``--csv`` output, of every command: keys as the header row,
    then each row of JSON-encoded cells.  Only here is ``csv`` imported."""
    import csv
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows(rows)


def _emit(row: dict, as_csv: bool) -> None:
    """Prints the one result row of ``hh bound``, ``means`` or ``certify``: a
    JSON line, or its sorted keys as a CSV header and its JSON-encoded
    cells.

    The JSON line is ``json.dumps(row, sort_keys=True)``, not the sweep
    line's cell renderer (``_sweep_cells``, ``_json_lines``): each is the
    faster one on its own side.  One row renders in about half the time
    through ``json`` as cell by cell, and a sweep's lines in about a third
    of the time through the renderer as through ``json`` (README has the
    figures).
    The hhbench workloads ``certify_ladder`` and ``verify_all`` time each
    side, so the two paths stay apart."""
    if as_csv:
        keys = sorted(row)
        _write_csv(keys, [[json.dumps(row[k]) for k in keys]])
    else:
        sys.stdout.write(json.dumps(row, sort_keys=True) + "\n")


def _sweep_cells(lines: Iterable[dict]) -> Iterator[tuple[str, ...]]:
    """Yields each sweep line's (``suites._line``) cells, in ``_SWEEP_KEYS``
    order, each the bytes of ``json.dumps(cell)``: floats by ``repr`` and
    names by ``encode_basestring_ascii``, as ``json`` renders them.
    ``_line`` refuses a line with a non-finite number, which ``json``
    would spell otherwise.  The function, gap and interval cells are
    rendered again only when the line does not hold the very objects of
    the cells last rendered; the test is ``is``, never ``==``, since
    0.0 == -0.0.  Each suite and theorem name is rendered once per call.
    """
    # the objects the shared cells render: none yet, so the first line sets them
    fid0 = gap0 = a0 = b0 = object()
    names: dict[str, str] = {}  # each suite and theorem name's cell
    for line in lines:
        fid, gap, (a, b) = line["function"], line["gap"], line["interval"]
        if not (fid is fid0 and gap is gap0 and a is a0 and b is b0):
            fid0, gap0, a0, b0 = fid, gap, a, b
            fid_cell, gap_cell = encode_basestring_ascii(fid), repr(gap)
            iv_cell = "[%r, %r]" % (a, b)
        suite, theorem = line["suite"], line["theorem"]
        yield (repr(line["bound"]), fid_cell, gap_cell, iv_cell,
               "true" if line["pass"] else "false", repr(line["slack"]),
               names.get(suite) or names.setdefault(suite, encode_basestring_ascii(suite)),
               names.get(theorem) or names.setdefault(theorem, encode_basestring_ascii(theorem)))


def _json_lines(cells: Iterable[tuple[str, ...]]) -> Iterator[str]:
    """Each sweep line's cells (``_sweep_cells``) as one JSON line, keys
    sorted: the bytes of ``json.dumps(line, sort_keys=True)`` and a newline."""
    return (f'{{"bound": {bound}, "function": {fid}, "gap": {gap}, "interval": {iv}, '
            f'"pass": {ok}, "slack": {slack}, "suite": {suite}, "theorem": {theorem}}}\n'
            for bound, fid, gap, iv, ok, slack, suite, theorem in cells)


def _lookup_function(name: str):
    fn = catalog_by_id().get(name)
    if fn is None:
        raise DomainError(f"unknown function {name!r}; catalog: "
                          + ", ".join(sorted(catalog_by_id())))
    return fn


def _cmd_verify(args: argparse.Namespace) -> int:
    """Writes each line as the sweep yields it, so neither a row nor its
    text outlives its write.  A sweep refused part-way (``EvaluationError``)
    has written the lines before the refused one, never that one."""
    from .suites import iter_suite
    lines = iter_suite(args.suite, args.cases, args.seed)
    passed = True

    def tallied() -> Iterator[dict]:
        nonlocal passed
        for line in lines:
            passed = passed and line["pass"]
            yield line

    if args.csv:
        _write_csv(_SWEEP_KEYS, _sweep_cells(tallied()))
    else:
        sys.stdout.writelines(_json_lines(_sweep_cells(tallied())))
    return EXIT_PASS if passed else EXIT_VIOLATION


def _cmd_bound(args: argparse.Namespace) -> int:
    from .suites import build_bound_report
    fn = _lookup_function(args.function)
    iv = Interval(args.a, args.b)
    report = build_bound_report(fn, iv, args.theorem, q=args.q, p=args.p)
    _emit({
        "theorem": report.theorem_id.value,
        "bound": report.bound,
        "true_gap": report.true_gap,
        "slack": report.slack,
        "valid": report.valid,
    }, args.csv)
    return EXIT_PASS if report.valid else EXIT_VIOLATION


def _cmd_means(args: argparse.Namespace) -> int:
    from .means import all_means, chain_holds
    row = all_means(args.a, args.b)
    row["chain"] = chain_holds(row)
    _emit(row, args.csv)
    return EXIT_PASS if row["chain"] else EXIT_VIOLATION


def _cmd_certify(args: argparse.Namespace) -> int:
    from .certifier import certify
    from .oracle import integrate
    fn = _lookup_function(args.function)
    iv = Interval(args.a, args.b)
    result = certify(fn, iv, args.tol)
    # the oracle's own error estimate is added to the radius (at most tol)
    # below, so it must stay a small share of that radius, or it could hide
    # a miss; a share of a subnormal radius can round to 0, which the oracle
    # refuses
    oracle = integrate(fn.f, iv, max(min(result.error_radius * 1e-2, GAP_TOL), math.ulp(0.0)))
    enclosed = abs(result.estimate - oracle.value) <= (
        result.error_radius + oracle.est_error)
    _emit({
        "estimate": result.estimate,
        "error_radius": result.error_radius,
        "n": result.subintervals,
        "oracle_value": oracle.value,
        "enclosed": enclosed,
        "theorem": result.theorem_used.value,
        "truncation_radius": result.truncation_radius,
        "rounding_radius": result.rounding_radius,
    }, args.csv)
    return EXIT_PASS if enclosed else EXIT_VIOLATION


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(_REFUSALS) as exc:
        print(f"hh: {exc}", file=sys.stderr)
        return next(code for kind, code in _REFUSALS.items() if isinstance(exc, kind))
    except OverflowError as exc:
        # a float power's OverflowError carries (errno, message)
        print(f"hh: an evaluation overflowed ({exc.args[-1]})", file=sys.stderr)
        return EXIT_VIOLATION
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the
        # interpreter's final flush of what is still buffered cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VIOLATION
