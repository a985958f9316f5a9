"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 hhbench/spread.py

Runs run.py once per workload and seed (seeds 1 to 10, ``run_seconds`` from
BENCHMARK.json), one run at a time, and prints for
each metric the median, the quartiles and the distance between them as a
share of the median (``statistics.quantiles(values, n=4)``), with the
failed share of attempted operations.  These are the reference figures in
README.md.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


SEEDS = range(1, 11)


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in wl.WORKLOADS:
        runs = []
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True, cwd=HERE.parent)
            runs.append(json.loads(done.stdout.splitlines()[-1]))
            print(f"{workload} seed {seed}: {done.stdout.splitlines()[-1]}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, "
              f"failed/attempted {sorted(shares)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:15s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"iqr/median {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
