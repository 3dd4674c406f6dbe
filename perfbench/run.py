"""sphere-sga benchmark: time to verdict per workload, per-layer times from a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload acceptance-n6 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fresh interpreter
plus ``import sphere_sga``, median of several), the trimmed means over passes
of ``ready_s`` and ``verdict_s``, and the median ``peak_rss_mb``.  Passes fill
``--seconds``; each pass is a fresh interpreter with a fresh working,
temporary and cache directory, so no memo carries over.

``--trace 1`` runs one traced pass and prints its per-layer metrics;
``trace.overhead_s`` is the number of spans times the measured cost of one
wrapped call.  ``--toy`` shrinks every workload for the smoke test.

Every pass checks its outputs; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` (output checks) and ``metrics``.
The environment, per-pass numbers and spans are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 11
# Every run, including its last pass, must end well inside 180 s.
DEADLINE_S = 170.0
# One BLAS thread: the pass runs on one core, and a BLAS thread that waits
# for a busy second core no longer sets its time.
BLAS_THREADS = 1

END_TO_END = {"setup_s": "s", "ready_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    kind: str
    tags: frozenset
    full: dict
    toy: dict
    # Ready-only passes after each full pass: more samples of a ready_s that
    # is short next to verdict_s.  0 where ready_s is most of verdict_s.
    ready_passes: int = 0


QUANTUM_TAGS = frozenset({"quantum", "space", "report"})
WORKLOADS = {
    # The paper's acceptance size; fixed Python cost per check dominates.
    "acceptance-n6": Workload("quantum", QUANTUM_TAGS | {"control"}, {"n": 6, "control": True}, {"n": 3}, 2),
    # Dense O(dim^3) products dominate; level-block operators should show here.
    # N=7 keeps a pass near 7 s on one BLAS thread, so a run holds several.
    "stress-n7": Workload("quantum", QUANTUM_TAGS, {"n": 7, "control": False}, {"n": 3}, 1),
    # Exact rational harmonic basis dominates; operators and verify do no work.
    "space-n10": Workload("space", frozenset({"space"}), {"n": 10}, {"n": 3}),
    # One long trajectory (RK4, then the per-sample constants of motion) and
    # many small independent states (the CLI bracket oracle).
    "classical": Workload(
        "classical", frozenset({"motion", "oracle", "report"}),
        {"t_end": 4.0, "dt": 1e-3, "states": 20}, {"t_end": 0.1, "states": 2}, 2,
    ),
}


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        TMPDIR=str(workdir),
        XDG_CACHE_HOME=str(workdir / "cache"),
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
    )
    return env


class Runner:
    """Starts each pass in a fresh interpreter and directory, within one deadline."""

    def __init__(self, start: float) -> None:
        self.deadline = start + DEADLINE_S
        self.count = 0

    def _fresh_dir(self) -> Path:
        self.count += 1
        d = OUT / "tmp" / f"{os.getpid()}-{self.count}"
        shutil.rmtree(d, ignore_errors=True)
        (d / "cache").mkdir(parents=True)
        return d

    def _run(self, argv: list[str], workdir: Path) -> subprocess.CompletedProcess | None:
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            return subprocess.run(
                argv, cwd=workdir, env=child_env(workdir), timeout=timeout,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            print(f"error: {argv[1:3]} exceeded the run deadline", file=sys.stderr)
            return None

    def time_import(self) -> float:
        workdir = self._fresh_dir()
        try:
            t = time.perf_counter()
            proc = self._run([sys.executable, "-c", "import sphere_sga"], workdir)
            elapsed = time.perf_counter() - t
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc is None or proc.returncode != 0:
            raise RuntimeError("import sphere_sga failed:\n" + (proc.stderr if proc else "timeout"))
        return elapsed

    def run_pass(self, spec: dict) -> dict | None:
        workdir = self._fresh_dir()
        out = workdir / "result.json"
        try:
            spec = dict(spec, out=str(out))
            proc = self._run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], workdir)
            if proc is None:
                return None
            if proc.returncode != 0 or not out.exists():
                print(f"error: pass failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}", file=sys.stderr)
                return None
            return json.loads(out.read_text())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def trimmed_mean(samples: list[float]) -> float:
    """Mean of a run's pass times without the fastest and slowest tenth.

    The host's speed switches between levels about 2x apart, so pass times
    are bimodal: their median jumps from one level to the other as the share
    of the run spent at each crosses one half, while the mean moves in
    proportion to that share.  Trimming a tenth keeps a rare stall out.
    """
    k = len(samples) // 10
    kept = sorted(samples)[k:len(samples) - k]
    return statistics.fmean(kept)


def environment(args, first_pass: dict) -> dict:
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads_requested": BLAS_THREADS,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }
    env.update(first_pass["env"])
    return env


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sphere_sga").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "sphere_sga" / "__init__.py").is_file():
        print(f"error: no sphere_sga sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    runner = Runner(start)
    wl = WORKLOADS[args.workload]
    params = dict(wl.full, **(wl.toy if args.toy else {}))
    spec = {"kind": wl.kind, "seed": args.seed, "trace": 0, "control": False, "ready_only": False, **params}
    if "n" in params:
        spec["golden"] = str(HERE / "golden" / f"checks-n{params['n']}.json")

    gates: list[list] = []
    setup: list[float] = []
    ready_only: list[dict] = []
    if args.trace:
        traced = runner.run_pass(dict(spec, trace=1))
        passes = [traced] if traced is not None else []
        gates.append(["passes_completed", traced is not None, f"{len(passes)} of 1"])
    else:
        # Import timings are spread over the run, one after each pass, so that
        # a slow spell of the machine does not set all of them.
        setup = [runner.time_import()]
        passes, tried = [], 0
        t_end = time.monotonic() + args.seconds
        ok = True
        # Full cycles while the next one, as long as the last, still fits.
        while ok:
            t_cycle = time.monotonic()
            tried += 1
            # The c=0 control is a check, not part of the verdict: once a run.
            result = runner.run_pass(dict(spec, control=spec["control"] and tried == 1))
            if result is None:
                ok = False
                break
            passes.append(result)
            if len(setup) < SETUP_REPEATS:
                setup.append(runner.time_import())
            for _ in range(wl.ready_passes):
                tried += 1
                result = runner.run_pass(dict(spec, control=False, ready_only=True))
                if result is None:
                    ok = False
                    break
                ready_only.append(result)
            now = time.monotonic()
            if now + (now - t_cycle) > t_end:
                break
        # The time left is filled with ready-only passes, which are short.
        while ok and wl.ready_passes and time.monotonic() < t_end:
            t_pass = time.monotonic()
            if len(setup) < SETUP_REPEATS:
                setup.append(runner.time_import())
            tried += 1
            result = runner.run_pass(dict(spec, control=False, ready_only=True))
            if result is None:
                break
            ready_only.append(result)
            now = time.monotonic()
            if now + (now - t_pass) > t_end:
                break
        setup += [runner.time_import() for _ in range(SETUP_REPEATS - len(setup))]
        done = len(passes) + len(ready_only)
        gates.append(["passes_completed", done == tried, f"{done} of {tried}"])

    for k, p in enumerate(passes):
        gates += [[f"pass{k}:{name}", ok, detail] for name, ok, detail in p["gates"]]
        if k and p["digest"] is not None:
            same = p["digest"] == passes[0]["digest"]
            gates.append([f"pass{k}:output_identical_to_pass0", same, ""])

    if not passes:
        print("error: no pass completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        values, reasons = layers.compute(set(wl.tags), traced["spans"], traced["extras"], traced["missing"])
        units = {m.name: m.unit for m in layers.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "ready_s": trimmed_mean([p["ready_s"] for p in passes + ready_only]),
            "verdict_s": trimmed_mean([p["verdict_s"] for p in passes]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        reasons, units = {}, END_TO_END

    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        if name in reasons:
            metrics[name]["missing"] = reasons[name]

    failed = sum(not ok for _, ok, _ in gates)
    env = environment(args, passes[0])
    record = {
        "environment": env,
        "metrics": metrics,
        "gates": gates,
        "setup_s": setup,
        "passes": [{k: p[k] for k in ("ready_s", "verdict_s", "peak_rss_mb")} for p in passes],
        "ready_only_s": [p["ready_s"] for p in ready_only],
    }
    if args.trace:
        record["spans"] = traced["spans"]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    _remove_empty(OUT / "tmp")

    print("environment " + json.dumps(env, sort_keys=True))
    for name, ok, detail in gates:
        if not ok:
            print(f"FAILED check {name} {detail}")
    print(f"passes {len(passes)} full, {len(ready_only)} ready-only; output checks {len(gates) - failed}/{len(gates)} passed")
    for name, m in metrics.items():
        value = "missing: " + m["missing"] if "missing" in m else f"{m['value']:.6g} {m['unit']}"
        print(f"  {name:34s} {value}")
    print(json.dumps({"correct": failed == 0, "attempted": len(gates), "failed": failed, "metrics": metrics}))
    return 0


def _remove_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
