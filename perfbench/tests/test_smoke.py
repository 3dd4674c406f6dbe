"""Smoke test of the benchmark at toy sizes (N=3, 101 samples, 2 oracle states).

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert "missing" not in emitted, emitted
        assert isinstance(emitted["value"], (int, float))


def test_per_layer_table_matches_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in layers.PER_LAYER]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_renamed_internal_is_reported_missing(monkeypatch):
    gone = ("sphere_sga.verify", "check_renamed_away", "verify.check_renamed_away")
    monkeypatch.setattr(tracer, "INSTRUMENTS", tracer.INSTRUMENTS + [gone])
    t = tracer.Tracer()
    undo, missing = tracer.install(t)
    try:
        import sphere_sga

        sphere_sga.run_suite(n_max=2)
    finally:
        tracer.uninstall(undo)
    assert "no longer exists" in missing["verify.check_renamed_away"]

    missing["verify.check_spectrum"] = "renamed"
    values, reasons = layers.compute({"quantum", "space", "report"}, t.spans, {}, missing)
    assert values["verify.spectrum_s"] is None and reasons["verify.spectrum_s"] == "renamed"
    assert values["verify.commutators_s"] > 0
    assert values["classical.integrate_s"] == 0.0
