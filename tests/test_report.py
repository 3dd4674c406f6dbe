import json
import math

import numpy as np

from sphere_sga.report import CheckResult, VerificationReport, format_float, json_value


def test_json_round_trips_escapes_and_non_finite_numbers():
    name = 'odd "name" with \\ backslash'
    checks = [
        CheckResult(name, math.nan, 1e-10, levels=(0, 2), note='say "hi"\\', seconds=math.inf),
        CheckResult("plain", 0.5, 1.0),
    ]
    config = {"label": 'a"b\\c', "c": -math.inf, "states": 3, "flag": True}
    report = VerificationReport(n_max=2, dimension=14, checks=checks, config=config)
    doc = json.loads(report.to_json())
    assert doc["config"] == {"c": None, "flag": True, "label": 'a"b\\c', "states": 3}
    first, second = doc["checks"]
    assert first["check"] == name
    assert first["note"] == 'say "hi"\\'
    assert first["residual"] is None and first["seconds"] is None
    assert first["pass"] is False and doc["overall_pass"] is False
    assert second == {
        "check": "plain",
        "residual": 0.5,
        "tolerance": 1.0,
        "pass": True,
        "levels": None,
        "seconds": 0.0,
        "note": "",
    }


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_json_is_strict_for_non_finite_numbers():
    report = VerificationReport(n_max=0, dimension=0, checks=[CheckResult("x", math.nan, math.inf)])
    doc = json.loads(report.to_json(), parse_constant=_reject)
    assert doc["checks"][0]["residual"] is None and doc["checks"][0]["tolerance"] is None


def test_margin_is_the_share_of_the_gate_and_the_report_names_the_worst():
    checks = [CheckResult("a", 2e-11, 1e-10), CheckResult("b", 5e-13, 1e-12), CheckResult("c", 0.0, 1.0)]
    assert [c.margin for c in checks] == [2e-11 / 1e-10, 0.5, 0.0]
    report = VerificationReport(n_max=2, dimension=14, checks=checks, with_margin=True)
    assert report.worst is checks[1]
    assert json.loads(report.to_json())["worst_margin"] == {"check": "b", "margin": 0.5}
    assert "worst margin: 5.000e-01 (b)\nOVERALL: PASS" in report.to_text()
    failing = VerificationReport(n_max=2, dimension=14, checks=[*checks, CheckResult("d", math.nan, 1.0)], with_margin=True)
    assert failing.worst.name == "d"
    assert json.loads(failing.to_json())["worst_margin"] == {"check": "d", "margin": None}
    assert json.loads(VerificationReport(n_max=2, dimension=14, checks=[], with_margin=True).to_json())["worst_margin"] is None
    plain = VerificationReport(n_max=2, dimension=14, checks=checks)  # the one-check bracket-oracle report
    assert "worst_margin" not in json.loads(plain.to_json()) and "worst margin" not in plain.to_text()


def test_json_value_writes_null_for_non_finite_floats_and_true_for_true():
    assert [json_value(x) for x in (math.nan, math.inf, -math.inf, None)] == ["null"] * 4
    assert json_value(True) == "true" and json_value(False) == "false"
    assert json_value(1) == "1" and json_value(0.1) == "0.10000000000000001" and json_value(-0.0) == "-0.0"


def test_json_value_prints_numpy_floats_as_digits():
    assert json_value(np.float64(0.1)) == "0.10000000000000001"
    assert json_value(np.float64(math.nan)) == "null"


def test_json_value_writes_other_numpy_scalars_as_json_numbers_and_bools():
    assert json_value(np.int64(3)) == "3" and json_value(np.uint8(255)) == "255" and json_value(np.int32(-7)) == "-7"
    assert json_value(np.bool_(True)) == "true" and json_value(np.bool_(False)) == "false"
    assert json_value(np.float32(0.5)) == "0.5" and json_value(np.float32(3)) == "3.0"
    assert json_value(np.float32(0.1)) == format_float(float(np.float32(0.1))) == "0.10000000149011612"
    assert [json_value(np.float32(x)) for x in (math.nan, math.inf, -math.inf)] == ["null"] * 3
    assert json_value(np.float16(-0.0)) == "-0.0"


def test_report_with_numpy_config_values_reads_back_with_their_types():
    config = {"states": np.int64(3), "flag": np.bool_(False), "c": np.float32(2.0), "gap": np.float32(math.nan)}
    report = VerificationReport(n_max=1, dimension=5, checks=[CheckResult("x", 0.0, 1.0)], config=config)
    doc = json.loads(report.to_json(), parse_constant=_reject)
    assert doc["config"] == {"c": 2.0, "flag": False, "gap": None, "states": 3}
    assert [type(doc["config"][k]) for k in ("c", "flag", "states")] == [float, bool, int]


def test_json_value_keeps_whole_floats_and_signed_zeros_floats():
    text = json_value([0.0, -0.0, 3.0, 1e16])
    assert text == "[0.0, -0.0, 3.0, 10000000000000000.0]"
    loaded = json.loads(text)
    assert loaded == [0.0, 0.0, 3.0, 1e16] and all(type(v) is float for v in loaded)
    assert math.copysign(1.0, loaded[0]) == 1.0 and math.copysign(1.0, loaded[1]) == -1.0
    assert json_value([2, 1e17, 0.5]) == "[2, 1e+17, 0.5]"  # ints, exponents and points stay as they were


def test_json_value_writes_arrays_and_ordered_objects_on_one_line():
    assert json_value((0, 2)) == "[0, 2]" and json_value([]) == "[]"
    doc = {"z": 1, "a": {"y": (1.5, None), "b": [True, "s"]}}
    text = json_value(doc)
    assert text == '{"z": 1, "a": {"y": [1.5, null], "b": [true, "s"]}}'
    assert list(json.loads(text)) == ["z", "a"] and list(json.loads(text)["a"]) == ["y", "b"]


def test_json_value_escapes_strings_as_json_dumps():
    for text in ['say "hi"', "back\\slash", "caf\u00e9 \u221e \U0001d11e", "tab\tnewline\n", ""]:
        assert json_value(text) == json.dumps(text)


def test_json_value_writes_an_unknown_object_as_its_quoted_str():
    class Thing:
        def __str__(self):
            return 'thing "7"'

    assert json_value(Thing()) == json.dumps('thing "7"')
    assert json.loads(json_value({"x": Thing()})) == {"x": 'thing "7"'}


def test_check_line_names_status_levels_and_note():
    assert CheckResult("a", 2e-11, 1e-10, levels=(0, 3)).line() == "PASS  a  residual=2.000e-11 tol=1.0e-10 levels=0..3"
    assert CheckResult("b", 1.0, 0.5, note="degenerate").line() == "FAIL  b  residual=1.000e+00 tol=5.0e-01 [degenerate]"
