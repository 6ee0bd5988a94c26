"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` looks methods up in their class's own ``__dict__``
and functions in the ``diagcalc`` modules, so moving one of its targets (to
a base class, say) would crash every traced benchmark run.  This test only
reads ``perfbench/``.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracing_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    originals = {fn for _, _, fn, _, _ in tracing.bindings()}
    for module, attribute, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"diagcalc.{module}")
        for name in attribute.split("."):
            owner = getattr(owner, name)
        assert owner in originals, f"{module}.{attribute}"
