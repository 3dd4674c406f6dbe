"""Structured check results and reports shared by the quantum and classical suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip safe, fixed width policy), spelt as
    a float: ``0.0``, ``-0.0`` and ``3.0`` keep a point, so a JSON reader gets floats back."""
    s = format(float(x), ".17g")
    return s if any(c in s for c in ".en") else s + ".0"


def json_value(v) -> str:
    """Every JSON value a report writes, on one line.

    Floats take ``format_float`` and a non-finite one is ``null``; None is
    ``null``; bools are ``true``/``false``; numpy's floats, bools and ints
    are written as Python's; strings are escaped as ``json.dumps`` escapes
    them; tuples and lists are arrays; dicts keep their insertion order.  Any
    other value is written as the JSON string of its ``str``.
    """
    if isinstance(v, float):
        return format_float(v) if math.isfinite(v) else "null"
    if isinstance(v, str):
        return _json_string(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    if isinstance(v, (tuple, list)):
        return "[" + ", ".join([json_value(x) for x in v]) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join([f"{_json_string(str(k))}: {json_value(x)}" for k, x in v.items()]) + "}"
    if isinstance(v, np.bool_):  # np.float64 is a float, and no other numpy scalar is a Python type
        return json_value(bool(v))
    if isinstance(v, (np.integer, np.floating)):
        return json_value(float(v) if isinstance(v, np.floating) else int(v))
    return _json_string(str(v))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named identity check.

    ``passed`` is derived: a check passes exactly when ``residual <= tolerance``,
    that is when its ``margin``, residual / tolerance, is at most 1.
    ``levels`` records the level range the check was restricted to (quantum
    checks only); ``note`` carries statuses such as ``degenerate``.
    """

    name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    levels: tuple[int, int] | None = None
    note: str = ""
    seconds: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.residual <= self.tolerance))

    @property
    def margin(self) -> float:
        """residual / tolerance: the share of its gate a check uses (above 1 it fails)."""
        if self.tolerance == 0:
            return 0.0 if self.residual == 0 else math.inf
        return self.residual / self.tolerance

    def line(self) -> str:
        """The check as one line of text: status, name, residual, tolerance, levels and note."""
        lv = "" if self.levels is None else f" levels={self.levels[0]}..{self.levels[1]}"
        note = f" [{self.note}]" if self.note else ""
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  residual={self.residual:.3e} tol={self.tolerance:.1e}{lv}{note}"


@dataclass
class VerificationReport:
    """Aggregate of check results for one representation space."""

    n_max: int
    dimension: int
    checks: list[CheckResult]
    build_seconds: float = 0.0
    config: dict | None = None
    with_margin: bool = False  # to_json and to_text name the worst check and its margin

    @property
    def overall_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    @property
    def worst(self) -> CheckResult | None:
        """The check with the largest margin (a NaN margin counts as the largest); None without checks."""
        return max(self.checks, key=lambda c: math.inf if math.isnan(c.margin) else c.margin, default=None)

    def to_json(self, include_timing: bool = True) -> str:
        """Serialize with fixed field order, one ``json_value`` per field.

        Every report is valid JSON (see ``json_value``).  With
        ``include_timing=False`` the ``seconds`` fields are zeroed so that
        identical configurations produce byte-identical documents.
        """
        head = {"n_max": self.n_max, "dimension": self.dimension}
        if self.config:
            head["config"] = dict(sorted(self.config.items()))
        head["build_seconds"] = self.build_seconds if include_timing else 0.0
        head["overall_pass"] = self.overall_passed
        if self.with_margin:
            worst = self.worst
            head["worst_margin"] = None if worst is None else {"check": worst.name, "margin": worst.margin}
        rows = ",\n".join(
            "    " + json_value({
                "check": c.name, "residual": c.residual, "tolerance": c.tolerance, "pass": c.passed,
                "levels": c.levels, "seconds": c.seconds if include_timing else 0.0, "note": c.note,
            })
            for c in self.checks
        )
        fields = "".join(f"  {_json_string(k)}: {json_value(v)},\n" for k, v in head.items())
        return "{\n" + fields + '  "checks": [\n' + rows + "\n  ]\n}\n"

    def to_text(self) -> str:
        lines = [
            f"space: n_max={self.n_max} dimension={self.dimension}",
            f"checks: {len(self.checks)}  failures: {len(self.failures())}",
        ]
        lines += [c.line() for c in self.checks]
        if self.with_margin and self.worst is not None:
            lines.append(f"worst margin: {self.worst.margin:.3e} ({self.worst.name})")
        lines.append("OVERALL: " + ("PASS" if self.overall_passed else "FAIL"))
        return "\n".join(lines) + "\n"

