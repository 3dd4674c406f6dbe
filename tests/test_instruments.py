"""The benchmark's traced names resolve, so a rename fails here and not only as a ``missing`` metric."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import sphere_sga
from sphere_sga import hilbert

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _perfbench(monkeypatch, name):
    # loaded by path and registered in sys.modules (dataclasses look their module up there)
    # for this test only, leaving sys.modules and the perfbench tree as they were
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _instruments(monkeypatch):
    return _perfbench(monkeypatch, "tracer").INSTRUMENTS


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


def test_a_traced_quantum_pass_leaves_no_span_metric_missing(monkeypatch):
    # the calls of perfbench's quantum worker at N=3: a pipeline that stops calling a traced
    # function (say TruncatedSpace.gram_matrix) reads `missing` there and fails this test
    tracer, layers = _perfbench(monkeypatch, "tracer"), _perfbench(monkeypatch, "layers")
    tags = {"quantum", "space", "report", "control"}
    spans = tracer.Tracer()
    undo, missing = tracer.install(spans)
    try:
        ops = sphere_sga.OperatorSet.build(sphere_sga.orthonormalize(3))
        sphere_sga.run_suite(ops=ops).to_json(include_timing=False)
        sphere_sga.check_restrictive(ops, c=0.0)
    finally:
        tracer.uninstall(undo)
    _, reasons = layers.compute(tags, spans.spans, {}, missing)
    traced = [m.name for m in layers.PER_LAYER if m.span is not None and m.tag in tags]
    assert traced and not {name: reasons[name] for name in traced if name in reasons}


class _Allocations:
    """numpy as a module sees it, recording the element count of each array made by shape."""

    def __init__(self, sizes: list):
        self._sizes = sizes

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("zeros", "empty", "ones", "full"):
            return attr

        def make(shape, *args, **kwargs):
            self._sizes.append(int(np.prod(shape)))
            return attr(shape, *args, **kwargs)

        return make


@pytest.mark.parametrize("n_max", [1, 4, 7])
def test_orthonormalize_runs_the_traced_exact_layer(monkeypatch, n_max):
    # the tracer wraps hilbert.harmonic_basis and TruncatedSpace.gram_matrix by name; a level
    # built around them would read `missing`.  No array is made with more elements than the
    # largest level Gram: the dense (2n+1)^4 integral table of an earlier Gram is gone
    bases, grams, sizes = [], [], []
    basis, gram = hilbert.harmonic_basis, hilbert.TruncatedSpace.gram_matrix
    monkeypatch.setattr(hilbert, "harmonic_basis", lambda n: bases.append(n) or basis(n))
    monkeypatch.setattr(hilbert.TruncatedSpace, "gram_matrix", lambda self, *d: grams.append(d) or gram(self, *d))
    monkeypatch.setattr(hilbert, "np", _Allocations(sizes))
    hilbert.orthonormalize(n_max)
    assert bases == list(range(n_max + 1))
    assert grams == [(n, n) for n in range(n_max + 1)]
    assert sizes and max(sizes) <= len(hilbert.monomials(n_max)) ** 2 < (2 * n_max + 1) ** 4
