"""The benchmark tracer binds rewirelab entry points by module and name; a removed
or renamed one would only show when a traced benchmark run crashed."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = []
    for mod_name, attr, *_ in tracing.ENTRY_POINTS:
        home = importlib.import_module(f"rewirelab.{mod_name}")
        if not callable(getattr(home, attr, None)):
            missing.append(f"rewirelab.{mod_name}.{attr}")
    assert missing == []
    assert {mod for mod, *_ in tracing.ENTRY_POINTS} <= set(tracing.LAYER_MODULES)
    for mod_name in tracing.LAYER_MODULES:
        importlib.import_module(f"rewirelab.{mod_name}")
