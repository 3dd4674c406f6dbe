import json
import math

from sphere_sga.report import CheckResult, VerificationReport


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
