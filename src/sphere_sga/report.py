"""Structured check results and reports shared by the quantum and classical suites."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip safe, fixed width policy)."""
    return format(float(x), ".17g")


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
        """Serialize with fixed field order and 17-significant-digit floats.

        Strings are JSON-escaped and non-finite numbers are written as
        ``null``, so every report is valid JSON.  With ``include_timing=False``
        the ``seconds`` fields are zeroed so that identical configurations
        produce byte-identical documents.
        """
        out = ["{"]
        out.append(f'  "n_max": {self.n_max},')
        out.append(f'  "dimension": {self.dimension},')
        if self.config:
            items = ", ".join(
                f"{json.dumps(k)}: {_json_scalar(v)}" for k, v in sorted(self.config.items())
            )
            out.append(f'  "config": {{{items}}},')
        bsec = self.build_seconds if include_timing else 0.0
        out.append(f'  "build_seconds": {_json_float(bsec)},')
        out.append(f'  "overall_pass": {_json_bool(self.overall_passed)},')
        if self.with_margin:
            worst = self.worst
            margin = "null" if worst is None else f'{{"check": {json.dumps(worst.name)}, "margin": {_json_float(worst.margin)}}}'
            out.append(f'  "worst_margin": {margin},')
        out.append('  "checks": [')
        rows = []
        for c in self.checks:
            lv = "null" if c.levels is None else f"[{c.levels[0]}, {c.levels[1]}]"
            sec = c.seconds if include_timing else 0.0
            rows.append(
                "    {"
                f'"check": {json.dumps(c.name)}, '
                f'"residual": {_json_float(c.residual)}, '
                f'"tolerance": {_json_float(c.tolerance)}, '
                f'"pass": {_json_bool(c.passed)}, '
                f'"levels": {lv}, '
                f'"seconds": {_json_float(sec)}, '
                f'"note": {json.dumps(c.note)}'
                "}"
            )
        out.append(",\n".join(rows))
        out.append("  ]")
        out.append("}")
        return "\n".join(out) + "\n"

    def to_text(self) -> str:
        lines = [
            f"space: n_max={self.n_max} dimension={self.dimension}",
            f"checks: {len(self.checks)}  failures: {len(self.failures())}",
        ]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lv = "" if c.levels is None else f" levels={c.levels[0]}..{c.levels[1]}"
            note = f" [{c.note}]" if c.note else ""
            lines.append(
                f"{status}  {c.name}  residual={c.residual:.3e} tol={c.tolerance:.1e}{lv}{note}"
            )
        if self.with_margin and self.worst is not None:
            lines.append(f"worst margin: {self.worst.margin:.3e} ({self.worst.name})")
        lines.append("OVERALL: " + ("PASS" if self.overall_passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _json_bool(b: bool) -> str:
    return "true" if b else "false"


def _json_float(x: float) -> str:
    return format_float(x) if math.isfinite(x) else "null"


def _json_scalar(v) -> str:
    if isinstance(v, bool):
        return _json_bool(v)
    if isinstance(v, float):
        return _json_float(v)
    if isinstance(v, int):
        return str(v)
    return json.dumps(str(v))
