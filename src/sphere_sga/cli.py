"""Command-line front end.

Subcommands: ``verify`` (full identity suite), ``spectrum`` (energy table),
``eigenstates`` (ladder-built states in polynomial form), ``simulate``
(classical trajectory with a constants-of-motion report), and
``bracket-oracle`` (finite-difference check of the Dirac brackets).

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or configuration
error, including a request too large for the available memory.  Every usage
error, including one argparse finds, prints a single ``error: ...`` line to
stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import classical, verify
from .hilbert import orthonormalize
from .operators import build_H, build_J, build_ladder, build_X
from .report import CheckResult, VerificationReport, json_value


def _parse_vector(text: str) -> tuple[float, ...]:
    parts = tuple(float(v) for v in text.replace(",", " ").split())
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected 4 comma-separated numbers, got {text!r}")
    return parts


def _parse_indices(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(v) for v in text.replace(",", " ").split())


def _parse_tol(pairs: list[str]) -> dict[str, float]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"tolerance override must look like name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = float(value)
    return out


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    tolerances = _parse_tol(args.tol) or None
    report = verify.run_suite(n_max=args.level, c=args.c, tolerances=tolerances)
    if args.fmt == "json":
        _write(report.to_json(include_timing=not args.no_timing), args.output)
    else:
        _write(report.to_text(), args.output)
    return 0 if report.overall_passed else 1


def cmd_spectrum(args: argparse.Namespace) -> int:
    space = orthonormalize(args.level)
    rows = verify.spectrum_table(build_H(space, build_J(space)))
    fields = ("n", "energy", "degeneracy", "measured", "residual")
    if args.fmt == "json":
        body = ",\n".join("  " + json_value({k: r[k] for k in fields}) for r in rows)
        _write("[\n" + body + "\n]\n", args.output)
    elif args.fmt == "csv":
        lines = [",".join(fields)] + [",".join(repr(r[k]) for k in fields) for r in rows]
        _write("\n".join(lines) + "\n", args.output)
    else:
        lines = [f"{'n':>3} {'energy':>8} {'degeneracy':>11} {'measured':>22} {'residual':>10}"]
        lines += [
            f"{r['n']:>3} {r['energy']:>8.0f} {r['degeneracy']:>11} {r['measured']:>22.15f} {r['residual']:>10.2e}"
            for r in rows
        ]
        _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_eigenstates(args: argparse.Namespace) -> int:
    n = len(args.indices)
    # eigenstate_vector raises IndexError here, which main does not turn into exit 2
    if any(not 1 <= mu <= 4 for mu in args.indices):
        print("error: ladder indices must lie in 1..4", file=sys.stderr)
        return 2
    space = orthonormalize(args.level)
    a_plus = build_ladder(space, build_X(space))[0]
    poly = verify.build_eigenstates(a_plus, args.indices)
    if args.fmt == "json":
        head = f'"indices": {json_value(list(args.indices))},\n"level": {n}'
        _write("{\n" + head + ',\n"terms": ' + poly.to_json() + "\n}\n", args.output)
    else:
        lines = [f"state for indices {list(args.indices)} (level {n}):"]
        for term in poly.to_json_terms():
            e = term["exponents"]
            mono = " ".join(f"x{k+1}^{v}" for k, v in enumerate(e) if v) or "1"
            lines.append(f"  {term['re']:+.12e} {term['im']:+.12e}j  *  {mono}")
        _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    x0 = np.asarray(args.x0)
    p0 = np.asarray(args.p0)
    with np.errstate(all="ignore"):
        xx, pp = float(x0 @ x0), float(p0 @ p0)
    # a sum of squares is finite only if every component is
    if not math.isfinite(xx + pp):
        print("error: --x0 and --p0 must be finite, with squared norms that do not overflow", file=sys.stderr)
        return 2
    viol = max(abs(xx - 1.0), abs(float(x0 @ p0)))
    if viol > 1e-9:
        print(
            f"warning: initial state violates constraints by {viol:.2e}; projecting",
            file=sys.stderr,
        )
    # a bad state, t_end or dt raises ValueError, which main turns into exit 2
    traj = classical.integrate(classical.project_state(x0, p0), args.t_end, args.dt)
    if args.output:
        if args.fmt == "json":
            classical.trajectory_to_json(traj, args.output)
        else:
            classical.trajectory_to_csv(traj, args.output)
    results = classical.check_motion_constants(traj)
    for r in results:
        print(r.line())
    degenerate = any(r.note == "degenerate" for r in results)
    if degenerate:
        print("status: degenerate fixed point (zero momentum); constant trajectory")
    return 0 if all(r.passed for r in results) else 1


def cmd_bracket_oracle(args: argparse.Namespace) -> int:
    if args.states < 1:
        print("error: --states must be >= 1", file=sys.stderr)
        return 2
    for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
        if not (math.isfinite(value) and value > 0):
            print(f"error: {flag} must be finite and > 0, got {value!r}", file=sys.stderr)
            return 2
    states = classical.random_ambient_states(args.states, seed=args.seed)
    xi, pi = np.array([a.xi for a in states]), np.array([a.pi for a in states])
    oracle = classical.bracket_matrix(xi, pi, step=args.step)
    closed = classical.dirac_bracket_matrix(*classical.pull_back(xi, pi))
    worst = float(np.abs(oracle - closed).max())
    passed = worst <= args.tolerance
    result = CheckResult("bracket:oracle_vs_closed_form", worst, args.tolerance)
    if args.fmt == "json":
        report = VerificationReport(n_max=0, dimension=0, checks=[result],
                                    config={"states": args.states, "step": args.step, "seed": args.seed})
        _write(report.to_json(include_timing=not args.no_timing), args.output)
    else:
        _write(
            f"{'PASS' if passed else 'FAIL'}  max |oracle - closed form| = {worst:.3e} "
            f"over {args.states} states (tolerance {args.tolerance!r})\n",
            args.output,
        )
    return 0 if passed else 1


class _Parser(argparse.ArgumentParser):
    """Parse errors print one ``error:`` line and exit 2; subparsers share the class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sphere-sga",
        description="Build, verify and simulate the spectrum generating algebra of free motion on the three-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full identity-verification suite")
    p.add_argument("--level", type=int, default=verify.DEFAULT_N, help="truncation level N (default 6)")
    p.add_argument("--c", type=float, default=2.0, help="constant shift in the symmetric tensor (2 = physical)")
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE", help="tolerance override")
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--no-timing", action="store_true", help="zero the seconds fields for byte-stable output")

    p = sub.add_parser("spectrum", help="print the energy spectrum table")
    p.add_argument("--level", type=int, default=verify.DEFAULT_N)
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("eigenstates", help="build a ladder eigenstate in polynomial form")
    p.add_argument("--level", type=int, default=verify.DEFAULT_N)
    p.add_argument("--indices", type=_parse_indices, default=(), help="comma-separated ladder indices in 1..4")
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    p = sub.add_parser("simulate", help="integrate the classical motion and check its constants")
    p.add_argument("--x0", type=_parse_vector, default=(1.0, 0.0, 0.0, 0.0))
    p.add_argument("--p0", type=_parse_vector, default=(0.0, 1.0, 0.0, 0.0))
    p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--output", default=None, help="trajectory file (csv or json)")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p = sub.add_parser("bracket-oracle", help="finite-difference check of the Dirac brackets")
    p.add_argument("--states", type=int, default=20)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--no-timing", action="store_true")

    return parser


COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "eigenstates": cmd_eigenstates,
    "simulate": cmd_simulate,
    "bracket-oracle": cmd_bracket_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
