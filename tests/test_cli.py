import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sphere_sga
from sphere_sga import classical, operators, verify
from sphere_sga.cli import main
from sphere_sga.hilbert import orthonormalize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_one_blas_thread(*argv, threads: int = 1):
    """stdout of the CLI in a fresh interpreter on one BLAS thread, or on ``threads``: at N=8
    the basis and H already round differently with two threads, so pinned bytes need a fixed count."""
    counts = {name: str(threads) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **counts, "PYTHONPATH": str(Path(sphere_sga.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "sphere_sga", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


GOLDEN = Path(__file__).parent / "golden"


def assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


# any float, and often one in the range a run accepts
FLOAT_STRINGS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(1e-9, 1.0)).map(repr)


class TestVerifyCommand:
    def test_small_level_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--level", "1")
        assert code == 2
        assert "level" in err

    def test_pass_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "3")
        assert code == 0
        assert "OVERALL: PASS" in out

    def test_json_report_and_exit_code(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--level", "3", "--format", "json", "--output", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["overall_pass"] is True
        assert doc["config"] == {"c": 2.0}

    def test_negative_control_fails(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--level", "3", "--c", "0", "--format", "json", "--output", str(path))
        assert code == 1
        doc = json.loads(path.read_text())
        failing = {c["check"] for c in doc["checks"] if not c["pass"]}
        assert {"T~_55", "T~_66", "T~_11"} <= failing

    def test_json_and_text_reports_are_pinned(self):
        # every value through report.json_value, every line through CheckResult.line; N=6 is the
        # acceptance size
        for n in (4, 6):
            assert run_one_blas_thread("verify", "--level", str(n), "--format", "json", "--no-timing") == (
                GOLDEN / f"verify-n{n}.json").read_text()
        assert run_one_blas_thread("verify", "--level", "4") == (GOLDEN / "verify-n4.txt").read_text()

    def test_byte_identical_reports(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _, _ = run(
                capsys, "verify", "--level", "3", "--format", "json", "--no-timing", "--output", str(p)
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_tolerance_override(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "3", "--tol", "commutator=1e-18")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("override", ["comutator=1e-30", "commutator=nan", "commutator=-1"])
    def test_bad_tolerance_override_is_a_usage_error(self, capsys, override):
        code, out, err = run(capsys, "verify", "--level", "3", "--tol", override)
        assert code == 2
        assert out == ""
        assert_one_line_error(err)
        assert "valid groups: commutator," in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_c_is_a_usage_error(self, capsys, value):
        code, out, err = run(capsys, "verify", "--level", "3", f"--c={value}")
        assert code == 2
        assert out == ""
        assert_one_line_error(err)
        assert "c must be finite" in err


class TestSpectrumCommand:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--level", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + 4 levels
        assert lines[1].split()[:3] == ["0", "0", "1"]
        assert lines[2].split()[:3] == ["1", "3", "4"]
        assert lines[4].split()[:3] == ["3", "15", "16"]

    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--level", "3", "--format", "csv", "--output", str(path))
        assert code == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "energy", "degeneracy", "measured", "residual"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
        assert [float(r[1]) for r in rows[1:]] == [0.0, 3.0, 8.0, 15.0]
        assert [int(r[2]) for r in rows[1:]] == [1, 4, 9, 16]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--level", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [row["degeneracy"] for row in doc] == [1, 4, 9]

    def test_negative_level_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "--level", "-1")
        assert code == 2
        assert out == ""
        assert_one_line_error(err)
        assert "nonnegative" in err

    def test_csv_output_is_pinned(self):
        # the eigenvalues of H's level blocks, byte for byte
        out = run_one_blas_thread("spectrum", "--level", "8", "--format", "csv")
        assert out == (GOLDEN / "spectrum-n8.csv").read_text()

    def test_json_output_is_pinned(self):
        out = run_one_blas_thread("spectrum", "--level", "8", "--format", "json")
        assert out == (GOLDEN / "spectrum-n8.json").read_text()

    def test_level_zero(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--level", "0")
        assert code == 0
        assert out.strip().splitlines()[1].split()[:3] == ["0", "0", "1"]

    def test_builds_only_J_and_H(self, capsys, monkeypatch):
        # the table reads H alone, so no other operator is built
        def build_X(space):
            raise AssertionError("spectrum built X")

        monkeypatch.setattr(operators, "build_X", build_X)
        code, out, _ = run(capsys, "spectrum", "--level", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 6


class TestEigenstatesCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "eigenstates", "--level", "3", "--indices", "1,2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["level"] == 2
        assert doc["indices"] == [1, 2]
        assert all(set(t) == {"exponents", "re", "im"} for t in doc["terms"])

    def test_json_output_is_pinned(self):
        # the ground state raised through A+'s level blocks, byte for byte
        out = run_one_blas_thread("eigenstates", "--level", "5", "--indices", "1,2,3", "--format", "json")
        assert out == (GOLDEN / "eigenstates-n5-123.json").read_text()

    def test_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "eigenstates", "--level", "3", "--indices", "7")
        assert code == 2

    def test_too_many_indices(self, capsys):
        code, _, err = run(capsys, "eigenstates", "--level", "3", "--indices", "1,1,2")
        assert code == 2
        assert "level" in err

    def test_level_one_prints_the_ground_state(self, capsys):
        code, out, err = run(capsys, "eigenstates", "--level", "1", "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["indices"] == [] and doc["level"] == 0
        space = orthonormalize(1)
        ground = verify.build_eigenstates(operators.build_ladder(space, operators.build_X(space))[0], ())
        assert doc["terms"] == ground.to_json_terms()

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_level_below_one_is_a_usage_error(self, capsys, level):
        code, out, err = run(capsys, "eigenstates", "--level", level)
        assert code == 2
        assert out == ""
        assert_one_line_error(err)

    def test_builds_only_X_and_the_ladder(self, capsys, monkeypatch):
        # the state reads A+ alone, so neither the full set nor P is built
        def refuse(*args, **kwargs):
            raise AssertionError("eigenstates built more than X and the ladder")

        monkeypatch.setattr(operators.OperatorSet, "build", refuse)
        monkeypatch.setattr(operators, "build_P", refuse)
        code, out, _ = run(capsys, "eigenstates", "--level", "4", "--indices", "1,2,3", "--format", "json")
        assert code == 0
        monkeypatch.undo()
        full = verify.build_eigenstates(operators.OperatorSet.build(orthonormalize(4)).a_plus, (1, 2, 3))
        assert json.loads(out)["terms"] == full.to_json_terms()


# overflowing, subnormal, non-finite, zero, negative and under-resolved (dt >= pi/10) times
SIMULATE_TIMES = st.one_of(
    FLOAT_STRINGS,
    st.sampled_from(["1e400", "-1e400", "1e-320", "5e-324", "2.5e-308", "inf", "-inf", "nan", "0", "-0.0", "-1",
                     "1e300", "1e-300", "0.4", "2", "1e4", "1", "0.01", "1e-3"]),
)


class TestSimulateCommand:
    def test_normal_run(self, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        code, out, err = run(
            capsys, "simulate", "--x0", "1,0,0,0", "--p0", "0,1,0,0",
            "--t-end", "3.2", "--dt", "0.005", "--output", str(path),
        )
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header[:3] == ["t", "x1", "x2"]

    def test_degenerate_momentum(self, capsys):
        code, out, _ = run(capsys, "simulate", "--p0", "0,0,0,0", "--t-end", "1", "--dt", "0.01")
        assert code == 0
        assert "degenerate fixed point" in out

    def test_under_resolved_dt(self, capsys):
        code, _, err = run(capsys, "simulate", "--t-end", "10", "--dt", "2.0")
        assert code == 2
        assert "under-resolve" in err

    def test_constraint_violation_warns_and_projects(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--x0", "2,0,0,0", "--p0", "0,1,0,0", "--t-end", "1", "--dt", "0.01"
        )
        assert code == 0
        assert "projecting" in err

    @pytest.mark.parametrize(
        "option, value",
        [("--t-end", "inf"), ("--t-end", "nan"), ("--t-end", "0"), ("--t-end", "-5"), ("--dt", "inf"),
         ("--x0", "nan,0,0,0"), ("--p0", "inf,0,0,0"), ("--x0", "1e200,0,0,0"), ("--p0", "0,1e200,0,0")],
    )
    def test_bad_input_is_a_usage_error(self, capsys, option, value):
        # an overflowing square prints no RuntimeWarning (pytest raises on one)
        code, out, err = run(capsys, "simulate", option, value)
        assert code == 2
        assert out == ""
        assert_one_line_error(err)

    @pytest.mark.parametrize("argv", [("--dt", "1e-320"), ("--t-end", "1e300", "--dt", "1e-10")])
    def test_overflowing_step_count_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "simulate", *argv)
        assert code == 2
        assert out == ""
        assert_one_line_error(err)
        assert "t_end / dt is not finite" in err

    @settings(max_examples=60, deadline=None)
    @given(t_end=SIMULATE_TIMES, dt=SIMULATE_TIMES)
    def test_any_numeric_times_keep_the_exit_contract(self, t_end, dt):
        # a valid pair runs at most 10^4 steps, so that no example allocates much or runs long
        period = math.pi  # of the default state, H = 1
        steps = float(t_end) / float(dt) if float(dt) > 0 else math.inf
        assume(not (0 < float(t_end) < math.inf and 0 < float(dt) < period / 10 and 1e4 < steps < math.inf))
        argv = ["simulate", f"--t-end={t_end}", f"--dt={dt}"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        if code == 2:
            assert out.getvalue() == ""
            assert_one_line_error(err.getvalue())
        else:
            assert err.getvalue() == "", argv

    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch):
        # a run too large to allocate (say --dt 1e-9) exits 2 instead of a traceback
        def integrate(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(classical, "integrate", integrate)
        code, out, err = run(capsys, "simulate", "--t-end", "10", "--dt", "1e-9")
        assert code == 2
        assert out == ""
        assert_one_line_error(err)

    def test_json_trajectory_and_report_are_pinned(self, tmp_path):
        path = tmp_path / "traj.json"
        out = run_one_blas_thread("simulate", "--t-end", "2", "--dt", "0.01", "--format", "json", "--output", str(path))
        assert out == (GOLDEN / "simulate-t2.txt").read_text()
        assert path.read_text() == (GOLDEN / "simulate-t2.json").read_text()

    def test_trajectory_file_does_not_depend_on_blas_threads(self, tmp_path):
        # the RK4 steps sum their dot products on Python floats, never in a BLAS kernel
        files = []
        for threads in (1, 2):
            path = tmp_path / f"traj-{threads}.json"
            argv = ("simulate", "--t-end", "2", "--dt", "0.01", "--format", "json", "--output", str(path))
            run_one_blas_thread(*argv, threads=threads)
            files.append(path.read_text())
        assert files[0] == files[1]

    def test_json_trajectory(self, tmp_path, capsys):
        path = tmp_path / "traj.json"
        code, _, _ = run(
            capsys, "simulate", "--t-end", "0.5", "--dt", "0.01",
            "--output", str(path), "--format", "json",
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["method"] == "rk4"


class TestBracketOracleCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "bracket-oracle", "--states", "3", "--seed", "1")
        assert code == 0
        assert out.startswith("PASS")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bracket-oracle", "--states", "2", "--format", "json", "--no-timing")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"][0]["check"] == "bracket:oracle_vs_closed_form"
        assert doc["checks"][0]["pass"] is True

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "bracket-oracle", "--states", "2", "--tolerance", "1e-18")
        assert code == 1

    @pytest.mark.parametrize(
        "option, value",
        [("--states", "0"), ("--states", "-3"), ("--step", "0"), ("--step", "nan"), ("--tolerance", "nan"),
         ("--step", "1e200")],
    )
    def test_bad_input_is_a_usage_error(self, capsys, option, value):
        code, out, err = run(capsys, "bracket-oracle", option, value)
        assert code == 2
        assert out == ""
        assert_one_line_error(err)

    def test_json_output_is_pinned(self, capsys):
        # the single-vector, one-bracket-at-a-time oracle gives exactly this report
        code, out, _ = run(capsys, "bracket-oracle", "--states", "20", "--seed", "0", "--format", "json", "--no-timing")
        assert code == 0
        assert out == PINNED_ORACLE_JSON

    @settings(max_examples=60, deadline=None)
    @given(
        step=FLOAT_STRINGS,
        tolerance=FLOAT_STRINGS,
        states=st.integers(-5, 40).map(str),  # the sampler loops once per state
    )
    def test_any_numeric_input_keeps_the_exit_contract(self, step, tolerance, states):
        argv = ["bracket-oracle", f"--states={states}", f"--step={step}", f"--tolerance={tolerance}"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        if code == 2:
            assert out.getvalue() == ""
            assert_one_line_error(err.getvalue())
        else:
            assert err.getvalue() == "", argv


PINNED_ORACLE_JSON = """{
  "n_max": 0,
  "dimension": 0,
  "config": {"seed": 0, "states": 20, "step": 1.0000000000000001e-05},
  "build_seconds": 0.0,
  "overall_pass": true,
  "checks": [
    {"check": "bracket:oracle_vs_closed_form", "residual": 9.3529184397311838e-11, "tolerance": 9.9999999999999995e-07, "pass": true, "levels": null, "seconds": 0.0, "note": ""}
  ]
}
"""


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert_one_line_error(captured.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--c", "-inf"],
        ["verify", "--level"],
        ["verify", "--level", "abc"],
        ["spectrum", "--format", "xml"],
        [],
    ],
)
def test_parse_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert_one_line_error(captured.err)


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: sphere-sga verify")
    assert captured.err == ""


def test_runtime_imports_no_test_only_package():
    # numpy is the one runtime dependency; scipy, sympy, mpmath and hypothesis serve tests only
    probe = (
        "import sys, sphere_sga, sphere_sga.cli; "
        "print(sorted({'scipy', 'sympy', 'mpmath', 'hypothesis'} & {m.split('.')[0] for m in sys.modules}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sphere_sga.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
