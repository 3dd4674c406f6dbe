"""Classical constrained dynamics on the three-sphere.

Phase space is the surface x.x = 1, x.p = 0 in R^4 x R^4 with Dirac brackets
{x_i,x_j} = 0, {p_i,x_j} = delta_ij - x_i x_j, {p_i,p_j} = J_ij.  The same
bracket arises as the canonical Poisson bracket of an unconstrained ambient
chart (xi, pi) pulled back through x = xi/|xi|, p = |xi| pi - (pi.xi) xi/|xi|^2;
a finite-difference bracket in that chart serves as an independent oracle.

Free motion is a great circle with frequency 2 sqrt(H); the generator
functions M_ab supply time-dependent constants of motion that solve the
dynamics algebraically, and the classical restrictive tensors vanish along
every trajectory.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import GENERATORS, METRIC_DIAG, tensor_R, tensor_T
from .report import CheckResult, format_float

CONSTRAINT_TOLERANCE = 1e-12
DEGENERATE_ENERGY = 1e-14

TRAJECTORY_COLUMNS = (
    "t", "x1", "x2", "x3", "x4", "p1", "p2", "p3", "p4",
    "H", "J12", "J13", "J14", "J23", "J24", "J34",
)


@dataclass(frozen=True)
class PhaseState:
    """Point (x, p) on the constraint surface x.x = 1, x.p = 0."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        p = np.asarray(self.p, dtype=float).copy()
        if x.shape != (4,) or p.shape != (4,):
            raise ValueError("x and p must be 4-vectors")
        if abs(x @ x - 1.0) > CONSTRAINT_TOLERANCE:
            raise ValueError(f"|x|^2 = {x @ x} violates the unit-sphere constraint")
        if abs(x @ p) > CONSTRAINT_TOLERANCE:
            raise ValueError(f"x.p = {x @ p} violates the transversality constraint")
        x.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def energy(self) -> float:
        return float(self.p @ self.p)


def project_state(x: Sequence[float], p: Sequence[float]) -> PhaseState:
    """Nearest constraint-satisfying state: normalize x, remove the radial p."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    nx = np.linalg.norm(x)
    if nx == 0:
        raise ValueError("cannot project a zero position vector")
    x = x / nx
    p = p - (x @ p) * x
    return PhaseState(x=x, p=p)


@dataclass(frozen=True)
class AmbientState:
    """Unconstrained chart point (xi, pi), xi != 0."""

    xi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float).copy()
        pi = np.asarray(self.pi, dtype=float).copy()
        if xi.shape != (4,) or pi.shape != (4,):
            raise ValueError("xi and pi must be 4-vectors")
        if np.linalg.norm(xi) < 1e-12:
            raise ValueError("ambient position must be nonzero")
        xi.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "pi", pi)


def ambient_map(a: AmbientState) -> PhaseState:
    """x = xi/|xi|, p = |xi| pi - (pi.xi) xi/|xi|^2; lands on the surface exactly."""
    r = float(np.linalg.norm(a.xi))
    x = a.xi / r
    p = r * a.pi - float(a.pi @ a.xi) * a.xi / r**2
    p = p - (x @ p) * x  # remove float residue of the exact identity x.p = 0
    return PhaseState(x=x, p=p)


def _pack(a: AmbientState) -> np.ndarray:
    return np.concatenate([a.xi, a.pi])


def _eval_pulled_back(f: Callable[[PhaseState], float], z: np.ndarray) -> float:
    state = ambient_map(AmbientState(xi=z[:4], pi=z[4:]))
    return float(f(state))


def poisson_oracle(
    f: Callable[[PhaseState], float],
    g: Callable[[PhaseState], float],
    a: AmbientState,
    step: float = 1e-5,
) -> float:
    """Finite-difference canonical bracket of the pulled-back observables.

    Convention: {f,g} = sum_i df/dpi_i dg/dxi_i - dg/dpi_i df/dxi_i, so that
    d/dt along the flow is {H, .}.  Central differences, error O(step^2).
    """
    z0 = _pack(a)

    def grad(fn) -> tuple[np.ndarray, np.ndarray]:
        d = np.empty(8)
        for k in range(8):
            zp = z0.copy(); zp[k] += step
            zm = z0.copy(); zm[k] -= step
            d[k] = (_eval_pulled_back(fn, zp) - _eval_pulled_back(fn, zm)) / (2 * step)
        return d[:4], d[4:]

    df_dxi, df_dpi = grad(f)
    dg_dxi, dg_dpi = grad(g)
    return float(df_dpi @ dg_dxi - dg_dpi @ df_dxi)


def dirac_bracket_basis(state: PhaseState, kind: str, i: int, j: int) -> float:
    """Closed-form Dirac bracket of basis observables; indices are 1-based.

    kind 'xx': {x_i, x_j} = 0; 'px': {p_i, x_j} = delta_ij - x_i x_j;
    'pp': {p_i, p_j} = J_ij.
    """
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise IndexError("indices must lie in 1..4")
    if kind == "xx":
        return 0.0
    if kind == "px":
        return float((1.0 if i == j else 0.0) - state.x[i - 1] * state.x[j - 1])
    if kind == "pp":
        return float(state.x[i - 1] * state.p[j - 1] - state.x[j - 1] * state.p[i - 1])
    raise ValueError(f"unknown bracket kind {kind!r}")


def coordinate(i: int) -> Callable[[PhaseState], float]:
    return lambda s: float(s.x[i - 1])


def momentum(i: int) -> Callable[[PhaseState], float]:
    return lambda s: float(s.p[i - 1])


def random_ambient_states(count: int, seed: int = 0, min_energy: float = 0.05) -> list[AmbientState]:
    """Reproducible ambient sample with bounded coordinates and H bounded below."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        xi = rng.uniform(-1.5, 1.5, size=4)
        if np.linalg.norm(xi) < 0.4:
            continue
        pi = rng.uniform(-1.5, 1.5, size=4)
        a = AmbientState(xi=xi, pi=pi)
        if ambient_map(a).energy < min_energy:
            continue
        out.append(a)
    return out


# ---------------------------------------------------------------------------
# generators and invariant tensors
# ---------------------------------------------------------------------------


def generator_array(x, p) -> np.ndarray:
    """Generator functions at stacked phase-space points.

    Maps (..., 4) positions and momenta to the antisymmetric (..., 6, 6) array
    M_ij = J_ij = x_i p_j - x_j p_i, M_i5 = K_i = J_ik x_k, M_i6 = L_i = h x_i,
    M_56 = h = sqrt(H) with H = p.p.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    J = x[..., :, None] * p[..., None, :] - p[..., :, None] * x[..., None, :]
    h = np.sqrt(p[..., None, :] @ p[..., :, None])[..., 0, 0]
    M = np.zeros(x.shape[:-1] + (6, 6))
    M[..., :4, :4] = J
    M[..., :4, 4] = (J @ x[..., None])[..., 0]
    M[..., :4, 5] = h[..., None] * x
    M[..., 4, 5] = h
    M[..., 4:, :4] = -M[..., :4, 4:].swapaxes(-1, -2)
    M[..., 5, 4] = -h
    return M


def _invariant_residuals(M: np.ndarray) -> tuple[float, float, float]:
    """Largest |C2|, |T_ab| and |R^ab| over stacked generator arrays.

    C2 = M^ab M_ab.  T and R are ``algebra``'s restrictive tensors (T with
    c = 0) on commuting 1x1 operands, halved: each symmetrized product there
    counts the classical product twice.  All three vanish on the surface.
    """
    g = np.array(METRIC_DIAG, dtype=float)
    casimir = float(np.abs(np.einsum("a,b,...ab,...ab->...", g, g, M, M)).max())
    ops = {k: M[..., k.a - 1, k.b - 1, None, None] for k in GENERATORS}

    def worst(tensor):
        return float(np.max([np.abs(v).max() for v in tensor.values()])) / 2

    return casimir, worst(tensor_T(ops, c=0.0)), worst(tensor_R(ops))


# ---------------------------------------------------------------------------
# motion
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Uniformly sampled motion; method is 'analytic' or 'rk4'."""

    times: np.ndarray
    xs: np.ndarray
    ps: np.ndarray
    method: str

    def __len__(self) -> int:
        return len(self.times)

    def state(self, k: int) -> PhaseState:
        return project_state(self.xs[k], self.ps[k])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def constraint_residual(self) -> float:
        rx = np.abs(np.einsum("ki,ki->k", self.xs, self.xs) - 1.0).max()
        rp = np.abs(np.einsum("ki,ki->k", self.xs, self.ps)).max()
        return float(max(rx, rp))


def analytic_solution(state0: PhaseState, t: float) -> PhaseState:
    """Closed-form great-circle motion with frequency 2 sqrt(H)."""
    H = state0.energy
    if H <= DEGENERATE_ENERGY:
        return state0
    root = math.sqrt(H)
    w = 2.0 * root
    x = math.cos(w * t) * state0.x + math.sin(w * t) * state0.p / root
    p = -root * math.sin(w * t) * state0.x + math.cos(w * t) * state0.p
    return project_state(x, p)


def analytic_trajectory(state0: PhaseState, t_end: float, dt: float) -> Trajectory:
    steps = max(1, int(round(t_end / dt)))
    times = np.arange(steps + 1) * dt
    H = state0.energy
    if H <= DEGENERATE_ENERGY:
        xs = np.tile(state0.x, (len(times), 1))
        ps = np.tile(state0.p, (len(times), 1))
        return Trajectory(times=times, xs=xs, ps=ps, method="analytic")
    root = math.sqrt(H)
    w = 2.0 * root
    cos = np.cos(w * times)[:, None]
    sin = np.sin(w * times)[:, None]
    xs = cos * state0.x + sin * state0.p / root
    ps = -root * sin * state0.x + cos * state0.p
    return Trajectory(times=times, xs=xs, ps=ps, method="analytic")


def period(state0: PhaseState) -> float:
    H = state0.energy
    if H <= DEGENERATE_ENERGY:
        return math.inf
    return math.pi / math.sqrt(H)


def integrate(state0: PhaseState, t_end: float, dt: float) -> Trajectory:
    """Fixed-step RK4 on xdot = 2p, pdot = -2(p.p)x with post-step projection.

    Requires finite, positive t_end and dt, and rejects dt at or above a tenth
    of the period as under-resolved; a zero momentum state is a fixed point
    and yields a constant trajectory.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    H = state0.energy
    if H <= DEGENERATE_ENERGY:
        steps = max(1, int(round(t_end / dt)))
        times = np.arange(steps + 1) * dt
        xs = np.tile(state0.x, (len(times), 1))
        ps = np.tile(state0.p, (len(times), 1))
        return Trajectory(times=times, xs=xs, ps=ps, method="rk4")
    if dt >= period(state0) / 10.0:
        raise ValueError(
            f"dt={dt} under-resolves the motion (period {period(state0):.6g}); need dt < period/10"
        )

    def rhs(y: np.ndarray) -> np.ndarray:
        x, p = y[:4], y[4:]
        return np.concatenate([2.0 * p, -2.0 * float(p @ p) * x])

    steps = max(1, int(round(t_end / dt)))
    times = np.arange(steps + 1) * dt
    xs = np.empty((steps + 1, 4))
    ps = np.empty((steps + 1, 4))
    y = np.concatenate([state0.x, state0.p])
    xs[0], ps[0] = y[:4], y[4:]
    for k in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x, p = y[:4], y[4:]
        x = x / np.linalg.norm(x)
        p = p - (x @ p) * x
        y = np.concatenate([x, p])
        xs[k], ps[k] = x, p
    return Trajectory(times=times, xs=xs, ps=ps, method="rk4")


def measured_frequency(traj: Trajectory) -> float:
    """Angular frequency from a linear fit of the unwrapped great-circle phase."""
    x0 = traj.xs[0]
    p0 = traj.ps[0]
    pn = np.linalg.norm(p0)
    if pn == 0:
        return 0.0
    e1, e2 = x0, p0 / pn
    c = traj.xs @ e1
    s = traj.xs @ e2
    phase = np.unwrap(np.arctan2(s, c))
    coeffs = np.polyfit(traj.times, phase, 1)
    return float(abs(coeffs[0]))


def measured_period(traj: Trajectory) -> float:
    w = measured_frequency(traj)
    return math.inf if w == 0 else 2.0 * math.pi / w


# ---------------------------------------------------------------------------
# constants-of-motion report
# ---------------------------------------------------------------------------


def check_motion_constants(traj: Trajectory, tolerance: float | None = None) -> list[CheckResult]:
    """Verify the algebraic constants along a trajectory.

    (a) A_j(+-)(t) e^(-+ 2 i t sqrt(H)) is constant; (b) A+.A- = 2H;
    (c) the quadratic Casimir vanishes; (d) both restrictive tensors vanish;
    (e) p = xdot/2 by fourth-order finite differences; plus per-sample
    constraint residuals.  Default tolerance: 1e-10 analytic, 1e-6 rk4.
    """
    if tolerance is None:
        tolerance = 1e-10 if traj.method == "analytic" else 1e-6
    state0 = traj.state(0)
    H = state0.energy
    if H <= DEGENERATE_ENERGY:
        residual = float(np.abs(traj.ps).max())
        return [CheckResult("motion:degenerate_fixed_point", residual, max(tolerance, 1e-12), note="degenerate")]

    root = math.sqrt(H)
    # the projection traj.state(k) applies, on all samples at once; matmul sums
    # in np.dot's order, so every row equals project_state's bit for bit
    xs = traj.xs / np.sqrt(traj.xs[:, None, :] @ traj.xs[:, :, None])[:, 0]
    M = generator_array(xs, traj.ps - (xs[:, None, :] @ traj.ps[:, :, None])[:, 0] * xs)
    # before the ladder arrays exist, so that the two sets of temporaries never add up
    casimir, tensor_t, tensor_r = _invariant_residuals(M)

    # A_j(+-) = M_5j -+ i M_6j
    a_plus = M[:, 4, :4] - 1j * M[:, 5, :4]
    a_minus = M[:, 4, :4] + 1j * M[:, 5, :4]
    drift_p = np.abs(a_plus * np.exp(-2j * traj.times * root)[:, None] - a_plus[0]).max()
    drift_m = np.abs(a_minus * np.exp(+2j * traj.times * root)[:, None] - a_minus[0]).max()
    ladder = float(np.maximum(drift_p, drift_m)) / max(1.0, float(np.abs(a_plus[0]).max()))
    amplitude = float(np.abs(np.sum(a_plus * a_minus, axis=1) - 2.0 * H).max()) / max(1.0, 2 * H)
    results = [
        CheckResult("motion:ladder_phase_constants", ladder, tolerance),
        CheckResult("motion:amplitude_product", amplitude, tolerance),
        CheckResult("motion:quadratic_casimir", casimir / max(1.0, 2 * H), tolerance),
        CheckResult("motion:tensor_T", tensor_t / max(1.0, H), tolerance),
        CheckResult("motion:tensor_R", tensor_r / max(1.0, H), tolerance),
    ]

    # p = xdot/2 via 4th-order central differences on interior samples
    if len(traj) >= 5:
        dt = traj.dt
        xdot = (-traj.xs[4:] + 8.0 * traj.xs[3:-1] - 8.0 * traj.xs[1:-3] + traj.xs[:-4]) / (12.0 * dt)
        diff = float(np.abs(traj.ps[2:-2] - 0.5 * xdot).max()) / max(1.0, root)
        fd_budget = 10.0 * (2.0 * root * dt) ** 4
        results.append(
            CheckResult("motion:p_is_half_xdot", diff, max(tolerance, fd_budget), note=f"fd budget {fd_budget:.2e}")
        )

    results.append(CheckResult("motion:constraints", traj.constraint_residual(), max(tolerance, 1e-12)))
    return results


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _trajectory_rows(traj: Trajectory):
    rows, cols = np.triu_indices(4, 1)
    J = generator_array(traj.xs, traj.ps)[:, rows, cols]  # J12, J13, J14, J23, J24, J34
    for k in range(len(traj)):
        x, p = traj.xs[k], traj.ps[k]
        yield [
            traj.times[k], *x, *p, float(p @ p),
            *J[k],
        ]


def trajectory_to_csv(traj: Trajectory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for row in _trajectory_rows(traj):
            writer.writerow([repr(float(v)) for v in row])


def trajectory_to_json(traj: Trajectory, path) -> None:
    cols = json.dumps(list(TRAJECTORY_COLUMNS))
    lines = [f'{{\n"method": "{traj.method}",\n"columns": {cols},\n"rows": [']
    rows = [
        "[" + ", ".join(format_float(float(v)) for v in row) + "]"
        for row in _trajectory_rows(traj)
    ]
    lines.append(",\n".join(rows))
    lines.append("]\n}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
