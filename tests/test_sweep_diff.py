"""``tools/sweep_diff.py``, the report of how two ``hh verify --csv``
outputs differ, line by line."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from hhbounds import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_diff.py"

HEADER = "bound,function,gap,interval,pass,slack,suite,theorem\n"

#: three lines; the second has its verdict flipped on the new side, and the
#: third is on one side only, its interval moved
OLD = HEADER + (
    '1.0,"""x2""",0.5,"[0.0, 1.0]",true,0.5,"""convex""","""convex_q1"""\n'
    '2.0,"""x2""",1.5,"[0.0, 1.0]",true,0.5,"""convex""","""convex_pm"""\n'
    '0.25,"""x3""",0.125,"[1.0, 2.0]",true,0.125,"""convex""","""convex_q1"""\n')
NEW = HEADER + (
    '1.0,"""x2""",0.5,"[0.0, 1.0]",true,0.5,"""convex""","""convex_q1"""\n'
    '1.0,"""x2""",1.5,"[0.0, 1.0]",false,-0.5,"""convex""","""convex_pm"""\n'
    '0.25,"""x3""",0.125,"[1.0, 3.0]",true,0.125,"""convex""","""convex_q1"""\n')


def _tool():
    spec = importlib.util.spec_from_file_location("sweep_diff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_seeded_sweep_against_itself_moves_no_line(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "all", "--cases", "3", "--seed", "7", "--csv"]) == 0
    sweep = tmp_path / "sweep.csv"
    sweep.write_text(capsys.readouterr().out)
    lines = sweep.read_text().count("\n") - 1
    proc = subprocess.run([sys.executable, str(TOOL), str(sweep), str(sweep)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    printed = proc.stdout.splitlines()
    assert printed[-1] == (f"total: {lines} old, {lines} new, 0 moved, 0 flipped, "
                           "0 only old, 0 only new")
    groups = [line for line in printed if not line.startswith(" ")][:-1]
    # identity, the nine bound theorems and the eight lines of the means sweep
    assert len(groups) == 1 + 9 + 8
    assert all(", 0 moved, 0 flipped, 0 only old, 0 only new" in line for line in groups)
    assert sum(line.count("largest change 0 absolute, 0 relative, 0 ulps")
               for line in printed) == 3 * len(groups)


def test_a_flip_a_move_and_one_sided_lines_are_each_reported(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(OLD)
    new.write_text(NEW)
    tool = _tool()
    assert tool.report(tool.read_sweep(old), tool.read_sweep(new)) == [
        "convex convex_q1: 2 old, 2 new, 0 moved, 0 flipped, 1 only old, 1 only new",
        "  bound: largest change 0 absolute, 0 relative, 0 ulps",
        "  gap: largest change 0 absolute, 0 relative, 0 ulps",
        "  slack: largest change 0 absolute, 0 relative, 0 ulps",
        "  bound/gap old: median 2 p90 2 of 2",
        "  bound/gap new: median 2 p90 2 of 2",
        "  only old x3 [1.0, 2.0]",
        "  only new x3 [1.0, 3.0]",
        "convex convex_pm: 1 old, 1 new, 1 moved, 1 flipped, 0 only old, 0 only new",
        f"  bound: largest change 1 absolute, 0.5 relative, {2 ** 52} ulps",
        "  gap: largest change 0 absolute, 0 relative, 0 ulps",
        f"  slack: largest change 1 absolute, 2 relative, {2 * 0x3FE0_0000_0000_0000} ulps",
        "  bound/gap old: median 1.33333 p90 1.33333 of 1",
        "  bound/gap new: median 0.666667 p90 0.666667 of 1",
        "  flip x2 [0.0, 1.0]: pass true -> false, bound 2.0 -> 1.0, gap 1.5 -> 1.5",
        "total: 3 old, 3 new, 1 moved, 1 flipped, 1 only old, 1 only new",
    ]


def test_ulps_count_the_floats_between_across_zero():
    tool = _tool()
    tiny = 5e-324
    assert tool.ulps(1.0, 1.0) == tool.ulps(0.0, -0.0) == 0
    assert tool.ulps(1.0, 1.0 + 2 ** -52) == 1
    assert tool.ulps(-tiny, tiny) == 2
