"""Per-layer tracing from outside the program, and swapping names inside it.

``patched`` replaces a function object under every name that refers to it
in the loaded hhbounds modules, which is where callers look it up.  The
tracer uses it to wrap each layer's public functions in spans; the eval
counter uses it to hand out catalog functions with counting evaluators.
Spans stay in memory as tuples and are reduced or written out at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time

#: layer -> (module, function) pairs wrapped in that layer's spans
LAYERS = {
    "cli": (("hhbounds.cli", "main"),),
    "suites": (("hhbounds.suites", "run_suite"),
               ("hhbounds.suites", "build_bound_report")),
    "identity": (("hhbounds.identity", "identity_lhs"),
                 ("hhbounds.identity", "identity_rhs")),
    "oracle.integrate": (("hhbounds.oracle", "integrate"),),
    "oracle.class_check": (("hhbounds.oracle", "check_convex_abs_d2"),
                           ("hhbounds.oracle", "check_quasiconvex_abs_d2"),
                           ("hhbounds.oracle", "midpoint_convexity_holds")),
    "certifier": (("hhbounds.certifier", "refine_to_tolerance"),
                  ("hhbounds.certifier", "integrate_certified")),
    "bounds": tuple(("hhbounds.bounds_convex", name) for name in (
        "bound_convex_q1", "bound_convex_holder", "bound_convex_powermean",
        "baseline_first_derivative")) + tuple(
        ("hhbounds.bounds_quasiconvex", name) for name in (
            "bound_quasi_q1", "bound_quasi_monotone", "bound_quasi_holder",
            "bound_quasi_powermean")),
    "means": tuple(("hhbounds.means", name) for name in (
        "all_means", "chain_check", "lp_values_on_grid", "lp_monotone_nondecreasing",
        "check_prop_monomial_q1", "check_prop_identric", "check_prop_monomial_pm",
        "check_prop_reciprocal_pm", "check_prop_reciprocal_quasi",
        "check_prop_monomial_quasi")),
}

#: per-layer metrics, named as in BENCHMARK.json, with their units
METRICS = {
    "oracle.integrate.calls": "count", "oracle.integrate.evals": "count",
    "oracle.integrate.self_s": "s",
    "identity.calls": "count", "identity.self_s": "s",
    "oracle.class_check.calls": "count", "oracle.class_check.evals": "count",
    "oracle.class_check.refuted": "count", "oracle.class_check.self_s": "s",
    "certifier.passes": "count", "certifier.points": "count",
    "certifier.useful_ratio": "ratio", "certifier.self_s": "s",
    "bounds.calls": "count", "bounds.self_s": "s",
    "means.calls": "count", "means.self_s": "s",
    "suites.self_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Counter:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


@contextlib.contextmanager
def patched(replacements: dict):
    """Within the block, every hhbounds module name bound to a key's object
    is bound to the value instead.  Keys are compared by identity."""
    by_id = {id(old): new for old, new in replacements.items()}
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "hhbounds" and not name.startswith("hhbounds."):
            continue
        for attr, value in list(vars(module).items()):
            new = by_id.get(id(value))
            if new is not None:
                undo.append((module, attr, value))
                setattr(module, attr, new)
    try:
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


def counting_catalog(core, counter: Counter) -> dict:
    """Replacements for the catalog constructors whose functions count every
    evaluation of f, f' and f'' in ``counter``."""
    build, by_id = core.builtin_catalog, core.catalog_by_id

    def count(ev):
        def counted(x):
            counter.n += 1
            return ev(x)
        return counted

    def counted_catalog():
        return [dataclasses.replace(fn, f=count(fn.f), d1=count(fn.d1), d2=count(fn.d2))
                for fn in build()]

    return {build: counted_catalog,
            by_id: lambda: {fn.id: fn for fn in counted_catalog()}}


def _span_attr(function: str, result):
    """The one number a span keeps from its function's result, if any."""
    if function == "integrate":
        return result.evaluations
    if function in ("integrate_certified", "refine_to_tolerance"):
        return result.subintervals
    if function.startswith(("check_", "midpoint_")):
        return 0 if result else 1
    return None


class Tracer:
    """Spans (function, start, end, parent, evals at start, evals at end, attr)
    around every wrapped function, kept in memory."""

    def __init__(self, counter: Counter) -> None:
        self.counter = counter
        self.functions: list[tuple[str, str]] = []   # (layer, function name)
        self.originals: list = []
        self.unmeasured: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        for layer, names in LAYERS.items():
            found = []
            for module_name, attr in names:
                fn = getattr(importlib.import_module(module_name), attr, None)
                if fn is None:
                    break
                found.append((attr, fn))
            else:
                for attr, fn in found:
                    self.functions.append((layer, attr))
                    self.originals.append(fn)
                continue
            self.unmeasured.append(layer)

    def _wrap(self, index: int, fn):
        spans, counter, stack = self.spans, self.counter, self.stack
        name = self.functions[index][1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            e0 = counter.n
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attr = None if result is None else _span_attr(name, result)
                spans[slot] = (index, t0, t1, parent, e0, counter.n, attr)

        return traced

    def active(self):
        """Context in which every wrapped function records spans."""
        return patched({fn: self._wrap(index, fn) for index, fn in enumerate(self.originals)})


def summarize(tracer: Tracer, spans: list[tuple]) -> dict:
    """Per-layer metrics of one traced round's spans."""
    functions = tracer.functions
    child_time = [0.0] * len(spans)
    for index, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    acc: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0.0) + value

    for slot, (index, t0, t1, parent, e0, e1, attr) in enumerate(spans):
        layer, name = functions[index]
        add(f"{layer}.self_s", (t1 - t0) - child_time[slot])
        if parent < 0 or functions[spans[parent][0]][0] != layer:
            add(f"{layer}.calls", 1)
            if layer == "oracle.class_check":
                add("oracle.class_check.evals", e1 - e0)
                add("oracle.class_check.refuted", attr or 0)
        if name == "integrate":
            add("oracle.integrate.evals", attr or 0)
        elif name == "integrate_certified":
            add("certifier.passes", 1)
            add("certifier.points", attr or 0)
        elif name == "refine_to_tolerance":
            add("certifier.final_points", attr or 0)
    out = {}
    for metric in METRICS:
        layer = metric.rsplit(".", 1)[0]
        if layer in tracer.unmeasured:
            out[metric] = None
        elif metric == "certifier.useful_ratio":
            points = acc.get("certifier.points", 0.0)
            out[metric] = acc.get("certifier.final_points", 0.0) / points if points else 0.0
        else:
            out[metric] = acc.get(metric, 0.0)
    return out
