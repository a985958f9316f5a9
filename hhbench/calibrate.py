"""Machine speed, read from a fixed pure-Python kernel owned by the benchmark.

The machines this benchmark runs on share their cores with other work, and
their speed changes by up to half within seconds.  Each timed operation is
therefore bracketed by runs of this kernel, and its time is scaled by
NOMINAL_S / (kernel time around it).  The kernel is written like the
program: an adaptive Simpson recursion and a composite midpoint sum over a
fresh list, so both slow down together.  It does not touch hhbounds.
"""

from __future__ import annotations

import math
import statistics
import time

#: kernel time in seconds on an unloaded 2-core machine of the reference figures
NOMINAL_S = 1.5e-3

#: kernel runs per reading; the reading is their median
REPS = 3


def _f(x: float) -> float:
    return math.exp(-x * x) + x ** 3


def _simpson(a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm, frm = _f(0.5 * (a + m)), _f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth >= 2 and abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
            + _simpson(m, b, fm, frm, fb, right, 0.5 * tol, depth + 1))


def kernel() -> float:
    fa, fm, fb = _f(0.0), _f(1.0), _f(2.0)
    total = _simpson(0.0, 2.0, fa, fm, fb, (fa + 4.0 * fm + fb) / 3.0, 1e-11, 0)
    n = 4000
    cuts = [i / n for i in range(n + 1)]
    values = [abs(_f(0.5 * (cuts[i] + cuts[i + 1]))) for i in range(n)]
    for v in values:
        total += v / n
    return total


def reading() -> float:
    """Seconds one kernel run takes now (median of REPS runs)."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two readings into nominal time."""
    return NOMINAL_S / (0.5 * (before + after))
