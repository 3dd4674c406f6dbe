import csv
import json

import pytest

from sphere_sga import classical, operators
from sphere_sga.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


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

    def test_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "eigenstates", "--level", "3", "--indices", "7")
        assert code == 2

    def test_too_many_indices(self, capsys):
        code, _, err = run(capsys, "eigenstates", "--level", "3", "--indices", "1,1,2")
        assert code == 2
        assert "level" in err


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
         ("--x0", "nan,0,0,0"), ("--p0", "inf,0,0,0")],
    )
    def test_bad_input_is_a_usage_error(self, capsys, option, value):
        code, out, err = run(capsys, "simulate", option, value)
        assert code == 2
        assert out == ""
        assert_one_line_error(err)

    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch):
        # a run too large to allocate (say --dt 1e-9) exits 2 instead of a traceback
        def integrate(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(classical, "integrate", integrate)
        code, out, err = run(capsys, "simulate", "--t-end", "10", "--dt", "1e-9")
        assert code == 2
        assert out == ""
        assert_one_line_error(err)

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
        [("--states", "0"), ("--states", "-3"), ("--step", "0"), ("--step", "nan"), ("--tolerance", "nan")],
    )
    def test_bad_input_is_a_usage_error(self, capsys, option, value):
        code, out, err = run(capsys, "bracket-oracle", option, value)
        assert code == 2
        assert out == ""
        assert_one_line_error(err)


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
