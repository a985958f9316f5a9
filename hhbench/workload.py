"""Runs one workload in this fresh, single-threaded process.

A closed loop with one caller: each round issues the workload's fixed
operations one after another, each after the previous one returned.  The
operations are timed in chunks, each between two readings of the machine's
speed (calibrate.py), and a round's rate counts time at nominal speed.
Untraced mode times rounds for ``--seconds`` after a warm-up round, then
makes one untimed round with counting catalog evaluators.  Traced mode
alternates untraced and traced rounds and reduces the traced rounds' spans
to per-layer metrics.  Every round's outputs go to standard output as one
JSON document, for run.py to check; identical rounds are sent once, with
their counts.

    python3 hhbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 \
        --src DIR [--trace-file FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads as wl
from tracing import METRICS, Counter, Tracer, counting_catalog, patched, summarize


def _call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


#: bound queries issued between two machine-speed readings
QUERY_CHUNK = 50


def make_chunks(name: str, seed: int) -> list:
    """The workload's round, as chunks of operations timed one by one.

    Each chunk returns (items, outputs, bytes written by the CLI); a round's
    outputs are its chunks' outputs in order.
    """
    import hhbounds.cli as cli
    import hhbounds.core as core
    import hhbounds.suites as suites

    def command(argv: list[str], count_lines: bool):
        def chunk():
            rc, text = _call_cli(cli, argv)
            size = len(text) if text.isascii() else len(text.encode())
            return (text.count("\n") if count_lines else 1), [[rc, text]], size
        return chunk

    if name == "verify_all":
        return [command(wl.verify_argv(seed), True)]
    if name == "certify_ladder":
        return [command(rung.argv(), False) for rung in wl.certify_order(seed)]

    def queries(batch: list[wl.Query]):
        def chunk():
            catalog = core.catalog_by_id()
            outputs = []
            for query in batch:
                try:
                    report = suites.build_bound_report(
                        catalog[query.function], core.Interval(query.a, query.b),
                        query.theorem, q=query.q, p=query.p)
                except core.HypothesisError:
                    outputs.append({"kind": "refused"})
                except (core.DomainError, core.EvaluationError,
                        core.ConvergenceError) as exc:
                    outputs.append({"kind": "error", "type": type(exc).__name__})
                else:
                    outputs.append({"kind": "report", "bound": report.bound,
                                    "true_gap": report.true_gap, "valid": report.valid})
            return len(batch), outputs, 0
        return chunk

    batch = wl.bound_queries(seed)
    return [queries(batch[i:i + QUERY_CHUNK]) for i in range(0, len(batch), QUERY_CHUNK)]


class Outputs:
    """Distinct round outputs with how often each came from a timed round.

    A round's outputs are compared with the kept ones in place: no key, digest
    or other copy of a captured text is made in the process whose peak memory
    is measured, and only the first round of each distinct output is kept.
    """

    def __init__(self) -> None:
        self.groups: list[list] = []

    def add(self, outputs, timed: bool) -> None:
        group = next((g for g in self.groups if g[0] == outputs), None)
        if group is None:
            group = [outputs, 0, 0]
            self.groups.append(group)
        group[1 if timed else 2] += 1

    def as_list(self) -> list[dict]:
        return [{"outputs": o, "timed": t, "untimed": u} for o, t, u in self.groups]


class Round:
    """Runs every chunk once; times each one between two machine-speed readings."""

    def __init__(self, chunks: list) -> None:
        self.chunks = chunks
        self.speed = calibrate.reading()

    def run(self, timed: bool = True) -> tuple[int, list, int, float, float]:
        """(items, outputs, bytes out, seconds, seconds at nominal speed)."""
        items, outputs, bytes_out, seconds, nominal = 0, [], 0, 0.0, 0.0
        for chunk in self.chunks:
            t0 = time.perf_counter()
            n, out, b = chunk()
            dt = time.perf_counter() - t0
            items, bytes_out = items + n, bytes_out + b
            outputs.extend(out)
            if timed:
                after = calibrate.reading()
                seconds += dt
                nominal += dt * calibrate.scale(self.speed, after)
                self.speed = after
        if not timed:
            self.speed = calibrate.reading()
        return items, outputs, bytes_out, seconds, nominal


def run_untraced(chunks: list, core, seconds: float, outputs: Outputs) -> dict:
    round_ = Round(chunks)
    outputs.add(round_.run(timed=False)[1], timed=False)  # warm-up
    rates, raw_rates = [], []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        items, out, _, dt, nominal = round_.run()
        rates.append(items / nominal)
        raw_rates.append(items / dt)
        outputs.add(out, timed=True)
        del out  # not held while the next round captures its own
    counter = Counter()
    with patched(counting_catalog(core, counter)):
        items, out, *_ = round_.run(timed=False)
    outputs.add(out, timed=False)
    return {
        "items_per_s": statistics.median(rates),
        "evals_per_item": counter.n / items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_rates": rates,
        "raw_round_rates": raw_rates,
    }


def run_traced(chunks: list, core, seconds: float, outputs: Outputs, trace_file: Path) -> dict:
    counter = Counter()
    tracer = Tracer(counter)
    round_ = Round(chunks)
    outputs.add(round_.run(timed=False)[1], timed=False)  # warm-up
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        _, out, _, _, nominal = round_.run()
        plain.append(nominal)
        outputs.add(out, timed=True)
        del tracer.spans[:]
        with patched(counting_catalog(core, counter)), tracer.active():
            _, out, bytes_out, _, nominal = round_.run()
        traced.append(nominal)
        outputs.add(out, timed=True)
        metrics = summarize(tracer, tracer.spans)
        if metrics["cli.bytes_out"] is not None:
            metrics["cli.bytes_out"] = float(bytes_out)
        layers.append(metrics)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w") as fh:
        json.dump({"functions": tracer.functions, "unmeasured": tracer.unmeasured,
                   "columns": ["function", "start", "end", "parent", "evals_start",
                               "evals_end", "attr"],
                   "spans": tracer.spans}, fh)
    result = {}
    for metric in METRICS:
        values = [m[metric] for m in layers]
        result[metric] = None if values[0] is None else statistics.median(values)
    result["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return {"layers": result, "unmeasured": tracer.unmeasured, "rounds": len(traced)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory holding hhbounds")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import hhbounds.core as core
    if not Path(core.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"hhbounds imported from {core.__file__}, not {args.src}", file=sys.stderr)
        return 2

    chunks = make_chunks(args.workload, args.seed)
    outputs = Outputs()
    if args.trace:
        report = run_traced(chunks, core, args.seconds, outputs, args.trace_file)
    else:
        report = run_untraced(chunks, core, args.seconds, outputs)
    report["groups"] = outputs.as_list()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
