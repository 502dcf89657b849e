"""The benchmark's tracer wraps the package's functions at the sites where
they are bound (``perfbench/tracing.py`` ``BINDINGS``), so a function
dropped or renamed at one of those sites breaks every traced benchmark run
while the rest of the suite still passes."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_binding_is_a_callable_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.BINDINGS
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.BINDINGS
               if not callable(getattr(module, attr, None))]
    assert missing == []
