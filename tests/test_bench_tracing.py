"""The benchmark's traced names still resolve in the library.

``hhbench/tracing.py`` wraps functions by name; a name that no longer
resolves leaves its layer unmeasured, and a traced run prints ``null`` for
that layer's metrics.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "hhbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("hhbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer(tracing.Counter()).unmeasured == []
