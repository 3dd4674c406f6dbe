"""The benchmark's traced names resolve, so a rename fails here and not only as a ``missing`` metric."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from sphere_sga import hilbert

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
