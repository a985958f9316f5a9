"""Prints the seconds a fresh interpreter takes to get hhbounds ready.

Ready means hhbounds and hhbounds.cli are imported and the catalog is built,
which is what every `hh` command does before its first operation.  A second
number follows: a machine-speed reading (calibrate.py) taken right after.

    python3 hhbench/setup_probe.py SRC_DIR
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import hhbounds  # noqa: E402
import hhbounds.cli  # noqa: E402

hhbounds.cli.catalog_by_id()
elapsed = time.perf_counter() - _START
if not Path(hhbounds.__file__).resolve().is_relative_to(src):
    sys.exit(f"hhbounds imported from {hhbounds.__file__}, not {src}")
import calibrate  # noqa: E402

print(repr(elapsed), repr(calibrate.reading()))
