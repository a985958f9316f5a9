"""The benchmark's traced names still resolve in the library, and stay on
the path of the work they measure.

``hhbench/tracing.py`` wraps functions by name; a name that no longer
resolves leaves its layer unmeasured, and a traced run prints ``null`` for
that layer's metrics.  A name that resolves but that the work no longer
calls through, say a formula looked up before the tracer replaced it,
would read 0 calls instead.
"""

import collections
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from hhbounds import cli
from hhbounds.suites import BOUND_ROWS, SWEEPS, run_suite

TRACING = Path(__file__).resolve().parent.parent / "hhbench" / "tracing.py"

VERIFY = ["verify", "--suite", "all", "--cases", "3", "--seed", "7"]


def _tracing():
    spec = importlib.util.spec_from_file_location("hhbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_layer_resolves():
    tracing = _tracing()
    assert tracing.Tracer(tracing.Counter()).unmeasured == []


def test_the_tracer_counts_each_gap_integral_and_bound_formula_of_a_sweep():
    """Traced as hhbench traces ``hh verify``: ``oracle.integrate`` runs
    twice per identity line (each side once) and once per interval of a
    bound sweep (its gap), and each line of a bound sweep calls its row's
    formula once (a formula that another calls is no span of the sweep)."""
    tracing = _tracing()
    tracer = tracing.Tracer(tracing.Counter())
    out = io.StringIO()
    with tracer.active(), contextlib.redirect_stdout(out):
        assert cli.main(VERIFY) == 0
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    names = [tracer.functions[span[0]] for span in tracer.spans]  # (layer, function)

    def caller(span):
        return names[span[3]][1] if span[3] >= 0 else None

    integrals = collections.Counter(caller(span) for span, (_, name) in zip(tracer.spans, names)
                                    if name == "integrate")
    identity = sum(line["suite"] == "identity" for line in lines)
    bound_lines = [line for line in lines if line["suite"] in SWEEPS]
    # every interval of a bound sweep has a line: the first row's class
    # holds on the window, so on each of its subintervals
    intervals = {(line["suite"], line["function"], *line["interval"]) for line in bound_lines}
    assert identity == 10 * 4 and len(intervals) > 20
    assert integrals == {"identity_lhs": identity, "identity_rhs": identity,
                         "main": len(intervals)}

    # the bound sweeps call the formulas from cli.main; the means sweep
    # calls some from its traced propositions
    formulas = collections.Counter(name for span, (layer, name) in zip(tracer.spans, names)
                                   if layer == "bounds" and caller(span) == "main")
    assert formulas == collections.Counter(BOUND_ROWS[line["theorem"]].formula
                                           for line in bound_lines)


#: the quasi-convex formulas that return ``bound_quasi_q1`` itself, looked
#: up in their module when they are called
_RETURN_QUASI_Q1 = {"quasi_monotone", "quasi_pm"}


@pytest.mark.parametrize("row", list(dict.fromkeys(
    (row.module, row.formula) for rows in SWEEPS.values() for row in rows)),
    ids=lambda row: row[1])
def test_a_formula_replaced_before_a_sweep_moves_exactly_its_theorems_lines(monkeypatch, row):
    """Each bound row calls its formula through the module attribute as the
    sweep starts, as the tracer replaces it: a formula replaced before the
    sweep moves every line of the bound sweeps' theorems that use it, and
    no other line of theirs."""
    module, formula = row
    theorems = {r.theorem.value for r in BOUND_ROWS.values() if r.formula == formula}
    if formula == "bound_quasi_q1":
        theorems |= _RETURN_QUASI_Q1
    before = [line for line in run_suite("all", 3, 7) if line["suite"] in SWEEPS]
    original = getattr(module, formula)
    monkeypatch.setattr(module, formula, lambda *args: original(*args) + 1.0)
    after = [line for line in run_suite("all", 3, 7) if line["suite"] in SWEEPS]
    assert len(after) == len(before)
    assert [line != new for line, new in zip(before, after)] == [
        line["theorem"] in theorems for line in before]
