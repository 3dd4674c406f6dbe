"""Per-layer metrics of a traced pass, derived from its spans and diagnostics.

Every metric applies to the workloads whose tags include its ``tag``.  On
other workloads the layer does no work and the metric reads 0.  Where it
applies but its span or diagnostic is absent (a function renamed or removed
by a refactor), the metric is reported as missing with the reason, and the
run goes on.
"""

from __future__ import annotations

from dataclasses import dataclass

# check group -> function run_suite calls for it
GROUPS = {
    "spectrum": "check_spectrum",
    "commutators": "check_commutators",
    "restrictive": "check_restrictive",
    "casimirs": "check_casimirs",
    "position": "check_position_momentum",
    "ladder": "check_ladder",
    "v_route": "check_v_route",
    "f_recursion": "check_f_recursion",
    "covariance": "check_covariance",
    "eigenstates": "check_eigenstates",
    "so3": "so3_demo",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    tag: str
    span: str | None = None  # sum of the durations of these spans ...
    scope: str | None = None  # ... restricted to descendants of this span ("" = top level only)
    extra: str | None = None  # a diagnostic the pass computed
    per: str | None = None  # rate: diagnostic ``extra`` (a count) per second of metric ``per``


def _span(name, tag, span, scope=None, unit="s", better="lower"):
    return Metric(name, unit, better, tag, span=span, scope=scope)


def _extra(name, tag, key, unit, better):
    return Metric(name, unit, better, tag, extra=key)


def _rate(name, tag, key, per):
    return Metric(name, "1/s", "higher", tag, extra=key, per=per)


PER_LAYER: list[Metric] = [
    _span("hilbert.harmonic_basis_s", "space", "hilbert.harmonic_basis"),
    _span("hilbert.gram_s", "space", "hilbert.gram_matrix"),
    _span("hilbert.orthonormalize_s", "space", "hilbert.orthonormalize"),
    _extra("hilbert.gram_identity_err", "space", "gram_identity_err", "abs", "lower"),
    _extra("hilbert.dim", "space", "dim", "count", "higher"),
    _span("operators.build_s", "quantum", "operators.build"),
    *[
        _span(f"operators.build_{b}_s", "quantum", f"operators.build_{b}")
        for b in ("J", "h", "X", "ladder", "P", "V")
    ],
    _extra("operators.stored_mb", "quantum", "stored_mb", "MB", "lower"),
    _extra("operators.nonzero_fraction", "quantum", "nonzero_fraction", "ratio", "higher"),
    _span("verify.suite_s", "quantum", "verify.run_suite"),
    *[_span(f"verify.{g}_s", "quantum", f"verify.{fn}", "verify.run_suite") for g, fn in GROUPS.items()],
    _span("algebra.tensor_T_s", "quantum", "algebra.tensor_T", "verify.run_suite"),
    _span("algebra.tensor_R_s", "quantum", "algebra.tensor_R", "verify.run_suite"),
    _span("verify.negative_control_s", "control", "verify.check_restrictive", ""),
    _extra("verify.checks", "quantum", "checks", "count", "higher"),
    _extra("verify.checks_failed", "quantum", "checks_failed", "count", "lower"),
    _extra("verify.report_unattributed_s", "quantum", "report_unattributed_s", "s", "lower"),
    _span("report.to_json_s", "report", "report.to_json"),
    _span("classical.integrate_s", "motion", "classical.integrate"),
    _rate("classical.rk4_steps_per_s", "motion", "rk4_steps", "classical.integrate_s"),
    _span("classical.motion_constants_s", "motion", "classical.check_motion_constants"),
    _rate("classical.motion_samples_per_s", "motion", "motion_samples", "classical.motion_constants_s"),
    _extra("classical.rk4_max_dev", "motion", "rk4_max_dev", "abs", "lower"),
    _span("classical.oracle_s", "oracle", "classical.poisson_oracle", "cli.main"),
    _rate("classical.oracle_brackets_per_s", "oracle", "oracle_brackets", "classical.oracle_s"),
    _span("cli.bracket_oracle_s", "oracle", "cli.main"),
    _extra("trace.overhead_s", "all", "overhead_s", "s", "lower"),
    _extra("trace.unattributed_s", "all", "unattributed_s", "s", "lower"),
]


def span_total(spans: list, name: str, scope: str | None) -> float:
    """Total duration of the spans called ``name`` inside ``scope``."""
    total = 0.0
    for s in spans:
        if s[0] != name:
            continue
        if scope == "" and s[3] != -1:
            continue
        if scope and not _inside(spans, s, scope):
            continue
        total += s[2] - s[1]
    return total


def _inside(spans: list, s: list, scope: str) -> bool:
    parent = s[3]
    while parent != -1:
        if spans[parent][0] == scope:
            return True
        parent = spans[parent][3]
    return False


def compute(tags: set[str], spans: list, extras: dict, missing: dict[str, str]) -> tuple[dict, dict]:
    """Return (value per metric, reason per missing metric).

    ``extras`` holds the diagnostics of the pass (a value, or None when it
    could not be computed); ``missing`` maps span names that could not be
    instrumented to the reason.
    """
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    called = {s[0] for s in spans}
    for m in PER_LAYER:
        if m.tag != "all" and m.tag not in tags:
            values[m.name] = 0.0
            continue
        value, reason = None, None
        if m.span is not None:
            if m.span in missing:
                reason = missing[m.span]
            elif m.span not in called:
                reason = f"{m.span} was not called during the pass"
            else:
                value = span_total(spans, m.span, m.scope)
        elif m.per is not None:
            base = values.get(m.per)
            if base is None:
                reason = reasons.get(m.per, f"{m.per} is missing")
            elif extras.get(m.extra) is None:
                reason = f"diagnostic {m.extra} is missing"
            else:
                value = extras[m.extra] / base
        elif extras.get(m.extra) is None:
            reason = f"diagnostic {m.extra} could not be computed"
        else:
            value = extras[m.extra]
        values[m.name] = value
        if reason:
            reasons[m.name] = reason
    return values, reasons
