"""The benchmark's traced names resolve, so a rename fails here and not only as a ``missing`` metric."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _instruments(monkeypatch):
    # loaded by path, leaving sys.modules and the perfbench tree as they were
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INSTRUMENTS


def test_every_traced_name_resolves(monkeypatch):
    # the lookup tracer.install makes: the attribute path, its last step through getattr_static
    instruments = _instruments(monkeypatch)
    assert instruments
    unresolved = []
    for module_name, path, span in instruments:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or inspect.getattr_static(owner, attr, None) is None:
            unresolved.append(span)
    assert not unresolved, f"traced names no longer in sphere_sga: {unresolved}"
