"""Benchmark of hhbounds: one workload, one seed, one JSON result line.

    python3 hhbench/run.py --workload {verify_all,certify_ladder,bound_queries} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/hhbounds``.  The workload
runs in its own fresh process (workload.py); this process times set-up in
further fresh processes (setup_probe.py), then checks every output of the
workload against exact references (checks.py, reference.py) and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as its last line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The same line, with the per-round details, is
kept in ``hhbench/results/``; a traced run also leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import METRICS  # noqa: E402

#: fresh interpreters timed per run for setup_s (after one that fills caches)
SETUP_PROBES = 21

#: the workload process may take this many seconds beyond twice --seconds
#: (warm-up, counting round, start-up) before it is stopped as hung
WORKLOAD_SLACK_S = 60

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "evals_per_item": "count",
                    "peak_rss_mb": "MB"}


def _python(args: list[str], timeout: float) -> str:
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def setup_seconds() -> tuple[float, float]:
    """Median set-up time of fresh interpreters: (at nominal speed, as measured)."""
    probe = [str(HERE / "setup_probe.py"), str(SRC)]
    _python(probe, 60)
    nominal, raw = [], []
    for _ in range(SETUP_PROBES):
        seconds, speed = map(float, _python(probe, 60).split())
        nominal.append(seconds * calibrate.scale(speed, speed))
        raw.append(seconds)
    return statistics.median(nominal), statistics.median(raw)


def item_problems(workload: str, seed: int, outputs) -> list[tuple[object, list[str], bool]]:
    """(operation, problems, excused) for every operation of one round.

    A failed operation is excused only when it is a known failure showing the
    known fault and nothing else (wl.EXPECTED_FAILURES, checks.is_rounding_miss).
    """
    if workload == "verify_all":
        return [(None, p, False) for rc, text in outputs
                for p in checks.check_verify_output(text, rc)]
    if workload == "certify_ladder":
        rungs = wl.certify_order(seed)
        return [(rung, checks.check_certificate(rung, rc, text),
                 rung in wl.EXPECTED_FAILURES
                 and checks.is_rounding_miss(rung, rc, text, wl.EXPECTED_FAILURES[rung]))
                for rung, (rc, text) in zip(rungs, outputs, strict=True)]
    queries = wl.bound_queries(seed)
    return [(query, checks.check_query(query, outcome), False)
            for query, outcome in zip(queries, outputs, strict=True)]


def tally(workload: str, seed: int, groups: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over the timed rounds.

    An operation fails when any check finds a problem.  The run stays correct
    while every failure is an excused one.
    """
    correct, attempted, failed = True, 0, 0
    for group in groups:
        results = item_problems(workload, seed, group["outputs"])
        attempted += len(results) * group["timed"]
        for op, problems, excused in results:
            if not problems:
                continue
            failed += group["timed"]
            if not excused:
                correct = False
                print(f"unexpected failure {op}: {'; '.join(problems)}", file=sys.stderr)
    return correct, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "hhbounds" / "__init__.py").is_file():
        print(f"no hhbounds sources under {SRC}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = None if args.trace else setup_seconds()
        report = json.loads(_python(
            [str(HERE / "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--src", str(SRC),
             "--trace-file", str(RESULTS / f"spans-{name}.json")],
            2 * args.seconds + WORKLOAD_SLACK_S))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    correct, attempted, failed = tally(args.workload, args.seed, report.pop("groups"))
    if args.trace:
        metrics = {m: {"value": report["layers"][m], "unit": unit}
                   for m, unit in METRICS.items()}
        for layer in report["unmeasured"]:
            print(f"run.py: layer {layer} unmeasured: a wrapped name is gone",
                  file=sys.stderr)
    else:
        report["setup_s"], report["raw_setup_s"] = setup
        metrics = {m: {"value": report[m], "unit": unit}
                   for m, unit in END_TO_END_UNITS.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"result-{name}.json", "w") as fh:
        json.dump({"result": result, "details": report}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
