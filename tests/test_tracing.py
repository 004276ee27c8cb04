"""The benchmark's trace list names only functions the package still has.

``bench/tracing.py`` records an absent span, not an error, for a listed
function that no longer exists, so a deletion would silently drop a
per-layer metric.  This reads its ``TRACED`` table (without installing the
tracer) and resolves every entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    for layer, entries in _traced().items():
        home = importlib.import_module(f"qtcatalan.{layer}")
        for qualname, _ in entries:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            assert callable(vars(owner).get(attr)), f"{layer}.{qualname}"
