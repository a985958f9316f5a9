"""Compare two ``hh verify --csv`` outputs line by line.

    python tools/sweep_diff.py OLD.csv NEW.csv

joins the lines of the two files on (suite, function, interval, theorem);
a key that repeats within one file is joined by its occurrence.  For each
suite and theorem, in the order they first appear, it prints:

- how many lines moved: their bound, gap, slack or verdict differs;
- the largest change in bound, gap and slack: absolute, relative to the
  old value, and in units in the last place (ulps);
- every verdict flip, line by line;
- every line found in one file only;
- the median and 90th percentile (nearest rank) of bound/gap on each
  side, over the lines whose gap is positive.

A last line gives the totals.  Every cell of ``hh verify --csv`` is the
JSON encoding of its value, as the header names it.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import sys
from pathlib import Path

_KEY = ("suite", "function", "interval", "theorem")
_NUMBERS = ("bound", "gap", "slack")


def read_sweep(path: Path) -> dict[tuple, dict]:
    """The lines of one ``hh verify --csv`` file by key, in file order: the
    key cells' text and the occurrence of that text, each line's cells
    decoded."""
    with open(path, newline="", encoding="utf-8") as stream:
        rows = csv.reader(stream)
        header = next(rows)
        lines: dict[tuple, dict] = {}
        seen: dict[tuple, int] = {}
        for cells in rows:
            line = dict(zip(header, cells))
            key = tuple(line[k] for k in _KEY)
            seen[key] = seen.get(key, 0) + 1
            lines[(*key, seen[key])] = {k: json.loads(v) for k, v in line.items()}
    return lines


def _ordered(x: float) -> int:
    """x's bits as an integer that orders as the floats do, -0.0 as 0.0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulps(x: float, y: float) -> int:
    """The number of floats from x to y, as units in the last place."""
    return abs(_ordered(y) - _ordered(x))


def relative(old: float, new: float) -> float:
    """|new - old| / |old|: 0 when the two are equal, inf when only old is 0."""
    if new == old:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def _rank(values: list[float], share: float) -> float:
    """The nearest-rank ``share`` quantile of sorted values."""
    return values[max(math.ceil(share * len(values)) - 1, 0)]


def _sharpness(lines: list[dict]) -> str:
    ratios = sorted(line["bound"] / line["gap"] for line in lines if line["gap"] > 0.0)
    if not ratios:
        return "no positive gap"
    return f"median {_rank(ratios, 0.5):.6g} p90 {_rank(ratios, 0.9):.6g} of {len(ratios)}"


def _where(line: dict) -> str:
    return f"{line['function']} {json.dumps(line['interval'])}"


def report(old: dict[tuple, dict], new: dict[tuple, dict]) -> list[str]:
    """The printed lines of the comparison of two read sweeps."""
    groups: dict[tuple, list] = {}
    for key in (*old, *(k for k in new if k not in old)):
        line = old[key] if key in old else new[key]
        groups.setdefault((line["suite"], line["theorem"]), []).append(key)
    out = []
    totals = [0, 0, 0, 0, 0, 0]  # old, new, moved, flipped, only old, only new
    for (suite, theorem), keys in groups.items():
        both = [(old[k], new[k]) for k in keys if k in old and k in new]
        moved = [(o, n) for o, n in both
                 if o["pass"] != n["pass"]
                 or any(float(o[c]).hex() != float(n[c]).hex() for c in _NUMBERS)]
        flips = [(o, n) for o, n in both if o["pass"] != n["pass"]]
        only_old = [old[k] for k in keys if k not in new]
        only_new = [new[k] for k in keys if k not in old]
        olds = [old[k] for k in keys if k in old]
        news = [new[k] for k in keys if k in new]
        counts = [len(olds), len(news), len(moved), len(flips), len(only_old), len(only_new)]
        totals = [t + c for t, c in zip(totals, counts)]
        out.append(f"{suite} {theorem}: {len(olds)} old, {len(news)} new, {len(moved)} moved, "
                   f"{len(flips)} flipped, {len(only_old)} only old, {len(only_new)} only new")
        for column in _NUMBERS:
            pairs = [(o[column], n[column]) for o, n in both]
            largest = max((abs(n - o) for o, n in pairs), default=0.0)
            rel = max((relative(o, n) for o, n in pairs), default=0.0)
            ulp = max((ulps(o, n) for o, n in pairs), default=0)
            out.append(f"  {column}: largest change {largest:.3g} absolute, "
                       f"{rel:.3g} relative, {ulp} ulps")
        out.append(f"  bound/gap old: {_sharpness(olds)}")
        out.append(f"  bound/gap new: {_sharpness(news)}")
        for o, n in flips:
            out.append(f"  flip {_where(o)}: pass {json.dumps(o['pass'])} -> "
                       f"{json.dumps(n['pass'])}, bound {o['bound']!r} -> {n['bound']!r}, "
                       f"gap {o['gap']!r} -> {n['gap']!r}")
        out.extend(f"  only old {_where(line)}" for line in only_old)
        out.extend(f"  only new {_where(line)}" for line in only_new)
    out.append("total: {} old, {} new, {} moved, {} flipped, {} only old, "
               "{} only new".format(*totals))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/sweep_diff.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    old, new = (read_sweep(Path(arg)) for arg in argv)
    print("\n".join(report(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
