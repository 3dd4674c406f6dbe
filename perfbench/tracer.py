"""In-memory span recorder that wraps sphere_sga functions from outside.

A traced pass replaces each function named in ``INSTRUMENTS`` with a wrapper
that records one span (name, start, end, parent) per call, then runs exactly
the same code as a plain pass.  The program therefore calls each layer in
its own order; the benchmark adds no calls of its own.  A function that a
later refactor renamed or deleted is reported as missing, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (module, attribute path, span name).  Span names are "<layer>.<function>".
INSTRUMENTS = [
    ("sphere_sga.hilbert", "harmonic_basis", "hilbert.harmonic_basis"),
    ("sphere_sga.hilbert", "TruncatedSpace.gram_matrix", "hilbert.gram_matrix"),
    ("sphere_sga.hilbert", "orthonormalize", "hilbert.orthonormalize"),
    ("sphere_sga.operators", "OperatorSet.build", "operators.build"),
    ("sphere_sga.operators", "build_J", "operators.build_J"),
    ("sphere_sga.operators", "build_h", "operators.build_h"),
    ("sphere_sga.operators", "build_X", "operators.build_X"),
    ("sphere_sga.operators", "build_ladder", "operators.build_ladder"),
    ("sphere_sga.operators", "build_P", "operators.build_P"),
    ("sphere_sga.operators", "build_V", "operators.build_V"),
    ("sphere_sga.verify", "run_suite", "verify.run_suite"),
    ("sphere_sga.verify", "check_spectrum", "verify.check_spectrum"),
    ("sphere_sga.verify", "check_commutators", "verify.check_commutators"),
    ("sphere_sga.verify", "check_restrictive", "verify.check_restrictive"),
    ("sphere_sga.verify", "check_casimirs", "verify.check_casimirs"),
    ("sphere_sga.verify", "check_position_momentum", "verify.check_position_momentum"),
    ("sphere_sga.verify", "check_ladder", "verify.check_ladder"),
    ("sphere_sga.verify", "check_v_route", "verify.check_v_route"),
    ("sphere_sga.verify", "check_f_recursion", "verify.check_f_recursion"),
    ("sphere_sga.verify", "check_covariance", "verify.check_covariance"),
    ("sphere_sga.verify", "check_eigenstates", "verify.check_eigenstates"),
    ("sphere_sga.verify", "so3_demo", "verify.so3_demo"),
    ("sphere_sga.algebra", "tensor_T", "algebra.tensor_T"),
    ("sphere_sga.algebra", "tensor_R", "algebra.tensor_R"),
    ("sphere_sga.report", "VerificationReport.to_json", "report.to_json"),
    ("sphere_sga.classical", "integrate", "classical.integrate"),
    ("sphere_sga.classical", "check_motion_constants", "classical.check_motion_constants"),
    ("sphere_sga.classical", "poisson_oracle", "classical.poisson_oracle"),
    ("sphere_sga.cli", "main", "cli.main"),
]


class Tracer:
    """Spans of one pass, kept in memory as ``[name, start, end, parent]``.

    ``parent`` is the index of the enclosing span, or -1 at top level.
    Times are ``time.perf_counter`` seconds.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced


def per_call_cost(calls: int = 10_000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: traced minus plain no-op, best of ``repeats``."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def install(tracer: Tracer) -> tuple[list, dict[str, str]]:
    """Wrap every instrumented function; return (undo list, missing span -> reason).

    Besides the defining module, every loaded ``sphere_sga`` module that
    re-exports the same function object gets the wrapper, so calls through
    ``sphere_sga.<name>`` are traced too.
    """
    undo: list = []
    missing: dict[str, str] = {}
    for module_name, path, span in INSTRUMENTS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError as exc:
            missing[span] = f"module {module_name} cannot be imported: {exc}"
            continue
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if raw is None:
            missing[span] = f"{module_name}.{path} no longer exists"
            continue
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(span, fn)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = staticmethod(wrapped)
        _patch(owner, attr, wrapped, undo)
        if not outer:
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "sphere_sga" and mod is not owner:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            _patch(mod, key, wrapped, undo)
    return undo, missing


def _patch(owner, attr, value, undo: list) -> None:
    undo.append((owner, attr, inspect.getattr_static(owner, attr)))
    setattr(owner, attr, value)


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
