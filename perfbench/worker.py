"""One pass of one workload, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<spec json>'``.  The spec names the
workload kind and sizes, the seed, whether to trace, the golden check list
and the file to write the result to.

The timed region starts after ``import sphere_sga`` (that is ``setup_s``)
and calls only names in ``sphere_sga.__all__`` plus ``cli.main``.  Checks
of the outputs and diagnostics run after it, with any tracing removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing

clock = time.perf_counter


# Each pass returns (t0, t_ready, t_verdict, peak RSS in MB at the verdict,
# a callable that checks the outputs and computes diagnostics afterwards).
# A ready-only pass stops once the user's object exists and returns
# (t0, t_ready, None, peak RSS, None): it only adds a sample of ready_s.


def quantum(spec, sga, cli):
    """Full pipeline: space, operators, suite, timing-free JSON report."""
    t0 = clock()
    space = sga.orthonormalize(spec["n"])
    ops = sga.OperatorSet.build(space)
    t_ready = clock()
    if spec["ready_only"]:
        return t0, t_ready, None, _peak_rss_mb(), None
    report = sga.run_suite(ops=ops)
    doc = report.to_json(include_timing=False)
    t_verdict = clock()
    rss = _peak_rss_mb()
    control = sga.check_restrictive(ops, c=0.0) if spec["control"] else None
    return t0, t_ready, t_verdict, rss, lambda: _quantum_facts(spec, space, ops, report, doc, control)


def space_only(spec, sga, cli):
    """Orthonormal space alone; the verdict is the per-level Gram identity."""
    t0 = clock()
    space = sga.orthonormalize(spec["n"])
    t_ready = clock()
    err = gram_identity_err(space)
    t_verdict = clock()
    return t0, t_ready, t_verdict, _peak_rss_mb(), lambda: _space_facts(spec, space, err)


def classical(spec, sga, cli):
    """One long RK4 trajectory and its constants of motion, then many small
    independent states through ``cli.main bracket-oracle``."""
    x, p = motion_state(spec["seed"])
    state0 = sga.PhaseState(x=x, p=p)
    out = io.StringIO()
    argv = ["bracket-oracle", "--states", str(spec["states"]), "--seed", str(spec["seed"]),
            "--format", "json", "--no-timing"]
    t0 = clock()
    traj = sga.integrate(state0, spec["t_end"], spec["dt"])
    t_ready = clock()
    if spec["ready_only"]:
        return t0, t_ready, None, _peak_rss_mb(), None
    results = sga.check_motion_constants(traj)
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    t_verdict = clock()
    facts = lambda: _classical_facts(sga, spec, state0, traj, results, code, out.getvalue())  # noqa: E731
    return t0, t_ready, t_verdict, _peak_rss_mb(), facts


KINDS = {"quantum": quantum, "space": space_only, "classical": classical}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def motion_state(seed: int):
    """x uniform on S^3 and a unit tangent p, so H = |p|^2 = 1 for every seed."""
    import numpy as np

    rng = np.random.default_rng([seed, 2])
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    p = rng.normal(size=4)
    p -= (x @ p) * x
    p /= np.linalg.norm(p)
    p -= (x @ p) * x
    return x, p


# ---------------------------------------------------------------------------
# output checks and diagnostics (outside the timed region)
# ---------------------------------------------------------------------------


def gram_identity_err(space) -> float:
    """max over levels of |B^T G B - I|, the bound orthonormalize promises."""
    import numpy as np

    worst = 0.0
    for n in range(space.n_max + 1):
        b = space.basis_matrix(n)
        g = space.gram_matrix(n, n)
        worst = max(worst, float(np.abs(b.T @ g @ b - np.eye(b.shape[1])).max()))
    return worst


def _quantum_facts(spec, space, ops, report, doc, control):
    golden = json.loads(Path(spec["golden"]).read_text())
    listed = [[c.name, repr(float(c.tolerance)), bool(c.passed)] for c in report.checks]
    gates = [
        ("overall_passed", report.overall_passed, ""),
        ("checks_match_golden", listed == golden, _first_difference(listed, golden)),
    ]
    if control is not None:
        failing = sum(not c.passed for c in control)
        gates.append(("c0_control_fails", failing > 0, f"{failing} failing checks"))
    extras = {
        "dim": space.dim,
        "gram_identity_err": _try(lambda: gram_identity_err(space)),
        "stored_mb": stored_bytes(ops, skip=(space,)) / 2**20,
        "nonzero_fraction": _try(lambda: _nonzero_fraction(ops)),
        "checks": len(report.checks),
        "checks_failed": sum(not c.passed for c in report.checks),
        "report_seconds": _try(lambda: sum(c.seconds for c in report.checks)),
    }
    return gates, extras, hashlib.sha256(doc.encode()).hexdigest()


def _space_facts(spec, space, err):
    n = spec["n"]
    gates = [
        ("dimension", space.dim == (n + 1) * (n + 2) * (2 * n + 3) // 6, f"dim {space.dim}"),
        ("gram_identity_le_1e-12", err <= 1e-12, f"{err:.3e}"),
    ]
    return gates, {"dim": space.dim, "gram_identity_err": err}, None


def _classical_facts(sga, spec, state0, traj, results, code, text):
    import numpy as np

    failed = [r.name for r in results if not r.passed]
    gates = [
        ("motion_checks_pass", not failed and len(results) > 0, ",".join(failed)),
        ("cli_oracle_exit_0", code == 0, f"exit {code}"),
        ("cli_oracle_reports_pass", '"overall_pass": true' in text, ""),
    ]
    exact = sga.analytic_trajectory(state0, spec["t_end"], spec["dt"])
    dev = max(float(np.abs(traj.xs - exact.xs).max()), float(np.abs(traj.ps - exact.ps).max()))
    extras = {
        "rk4_steps": len(traj) - 1,
        "motion_samples": len(traj),
        "rk4_max_dev": dev,
        "oracle_brackets": 48 * spec["states"],
    }
    rows = [[r.name, repr(float(r.residual)), bool(r.passed)] for r in results]
    return gates, extras, hashlib.sha256((json.dumps(rows) + text).encode()).hexdigest()


def _first_difference(a, b) -> str:
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"row {k}: {x} != {y}"
    return "" if len(a) == len(b) else f"{len(a)} checks against {len(b)} recorded"


def _nonzero_fraction(ops) -> float:
    import numpy as np

    mats = [rep.matrix for rep in ops.generators.values()]
    return sum(int(np.count_nonzero(m)) for m in mats) / sum(m.size for m in mats)


def stored_bytes(obj, skip=()) -> int:
    """Bytes of the distinct numpy buffers reachable from ``obj`` (computed from nbytes)."""
    import numpy as np

    seen, buffers, todo = {id(s) for s in skip}, {}, [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            base = o
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            todo.extend(o)
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            todo.extend(vars(o).values())
    return sum(buffers.values())


def _try(fn):
    try:
        return fn()
    except AttributeError:
        return None


def blas_environment() -> dict:
    """numpy version, BLAS build and the thread count the BLAS library reports."""
    import ctypes
    import glob
    import os

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads if threads is not None else "unknown",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    import sphere_sga as sga
    from sphere_sga import cli

    tracer = tracing.Tracer() if spec["trace"] else None
    undo, missing = tracing.install(tracer) if tracer else ([], {})
    try:
        t0, t_ready, t_verdict, rss, facts = KINDS[spec["kind"]](spec, sga, cli)
    finally:
        tracing.uninstall(undo)
    gates, extras, digest = facts() if facts else ([], {}, None)
    result = {
        "ready_s": t_ready - t0,
        "verdict_s": None if t_verdict is None else t_verdict - t0,
        "peak_rss_mb": rss,
        "gates": [[name, bool(ok), detail] for name, ok, detail in gates],
        "digest": digest,
        "env": blas_environment(),
    }
    if tracer:
        spans = tracer.spans
        top = [s for s in spans if s[3] == -1 and t0 <= s[1] and s[2] <= t_verdict]
        extras["unattributed_s"] = (t_verdict - t0) - sum(s[2] - s[1] for s in top)
        extras["overhead_s"] = len(spans) * tracing.per_call_cost()
        if extras.get("report_seconds") is not None:
            import layers

            groups = sum(
                layers.span_total(spans, f"verify.{fn}", "verify.run_suite") for fn in layers.GROUPS.values()
            )
            extras["report_unattributed_s"] = groups - extras["report_seconds"]
        result.update(
            spans=[[name, start - t0, end - t0, parent] for name, start, end, parent in spans],
            extras=extras,
            missing=missing,
        )
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
