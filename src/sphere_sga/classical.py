"""Classical constrained dynamics on the three-sphere.

Phase space is the surface x.x = 1, x.p = 0 in R^4 x R^4 with Dirac brackets
{x_i,x_j} = 0, {p_i,x_j} = delta_ij - x_i x_j, {p_i,p_j} = J_ij.  The same
bracket arises as the canonical Poisson bracket of an unconstrained ambient
chart (xi, pi) pulled back through x = xi/|xi|, p = |xi| pi - (pi.xi) xi/|xi|^2;
a finite-difference bracket in that chart serves as an independent oracle.
Observables are functions of stacked surface points x, p (..., 4).

Free motion is a great circle with frequency 2 sqrt(H); the generator
functions M_ab supply time-dependent constants of motion that solve the
dynamics algebraically, and the classical restrictive tensors vanish along
every trajectory.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import GENERATORS, METRIC_DIAG, tensor_R, tensor_T
from .report import CheckResult, json_value

CONSTRAINT_TOLERANCE = 1e-12
DEGENERATE_ENERGY = 1e-14

# maps stacked surface points x, p (..., 4) to values (...) or (..., m)
Observable = Callable[[np.ndarray, np.ndarray], np.ndarray]

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
        xx = float(x @ x)
        # a sum of squares is finite only if every component is
        if not math.isfinite(xx + float(p @ p)):
            raise ValueError("x and p must be finite")
        if abs(xx - 1.0) > CONSTRAINT_TOLERANCE:
            raise ValueError(f"|x|^2 = {xx} violates the unit-sphere constraint")
        xp = float(x @ p)
        if abs(xp) > CONSTRAINT_TOLERANCE:
            raise ValueError(f"x.p = {xp} violates the transversality constraint")
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked dot product over the last axis, kept as a trailing axis of length 1.

    A (1, n) by (n, 1) matmul sums in ``np.dot``'s order, so each entry equals
    the dot product of the single vectors bit for bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _chart_points(xi, pi) -> tuple[np.ndarray, np.ndarray]:
    xi = np.asarray(xi, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if xi.shape[-1:] != (4,) or pi.shape != xi.shape:
        raise ValueError("xi and pi must be 4-vectors of one stacked shape")
    return xi, pi


def pull_back(xi, pi) -> tuple[np.ndarray, np.ndarray]:
    """Chart points (..., 4) to surface points: x = xi/|xi|, p = |xi| pi - (pi.xi) xi/|xi|^2.

    The float residue of the exact identity x.p = 0 is projected out.  Every
    point gets the checks of AmbientState and PhaseState, all at once; the
    first failing point raises their ValueError.  numpy's floating warnings
    stay inside, so that error is the only report of an overflow.
    """
    xi, pi = _chart_points(xi, pi)
    with np.errstate(all="ignore"):
        r = np.sqrt(_dot(xi, xi))
        x = xi / r
        p = r * pi - _dot(pi, xi) * xi / (r * r)
        p = p - _dot(x, p) * x
        xx = _dot(x, x)
        bad = (
            (r < 1e-12)
            | ~np.isfinite(xx + _dot(p, p))  # a sum of squares is finite only if every component is
            | (np.abs(xx - 1.0) > CONSTRAINT_TOLERANCE)
            | (np.abs(_dot(x, p)) > CONSTRAINT_TOLERANCE)
        )
        if bad.any():
            k = int(bad.argmax())  # the first failing point; the scalar checks word its error
            AmbientState(xi=xi.reshape(-1, 4)[k], pi=pi.reshape(-1, 4)[k])
            PhaseState(x=x.reshape(-1, 4)[k], p=p.reshape(-1, 4)[k])
    return x, p


def ambient_map(a: AmbientState) -> PhaseState:
    """The pull-back of one chart point; lands on the surface exactly."""
    x, p = pull_back(a.xi, a.pi)
    return PhaseState(x=x, p=p)


def _difference_points(z: np.ndarray, step: float) -> np.ndarray:
    """Central-difference points of (..., 8) chart points as (..., 8, 2, 8):
    [..., k, 0, :] is z + step e_k and [..., k, 1, :] is z - step e_k."""
    points = np.broadcast_to(z[..., None, None, :], z.shape[:-1] + (8, 2, 8)).copy()
    k = np.arange(8)
    points[..., k, 0, k] += step
    points[..., k, 1, k] -= step
    return points


def poisson_oracle(f: Observable, g: Observable, xi, pi, step: float = 1e-5) -> np.ndarray:
    """Finite-difference canonical brackets {f_a, g_b} of pulled-back observables.

    xi, pi are chart points (..., 4); the 16 central-difference points of
    each go through one pull_back.  The result has shape (...), with an axis
    of length m appended for each vector-valued observable.

    Convention: {f,g} = sum_i df/dpi_i dg/dxi_i - dg/dpi_i df/dxi_i, so that
    d/dt along the flow is {H, .}.  Central differences, error O(step^2).
    """
    xi, pi = _chart_points(xi, pi)
    points = _difference_points(np.concatenate([xi, pi], axis=-1), step)
    x, p = pull_back(points[..., :4], points[..., 4:])

    def grad(fn) -> tuple[np.ndarray, tuple]:
        """(..., m, 8) derivatives in (xi, pi), contiguous so that rows are
        unit-stride vectors, and the value shape, () or (m,)."""
        values = np.asarray(fn(x, p), dtype=float)
        shape = values.shape[x.ndim - 1:]
        values = values.reshape(x.shape[:-1] + (-1,))
        d = (values[..., 0, :] - values[..., 1, :]) / (2 * step)
        return np.ascontiguousarray(d.swapaxes(-1, -2)), shape

    (df, f_shape), (dg, g_shape) = grad(f), grad(g)
    # (1, 4) by (4, 1) matmuls sum in np.dot's order, as _dot does
    out = (df[..., :, None, None, 4:] @ dg[..., None, :, :4, None])[..., 0, 0]
    out = out - (dg[..., None, :, None, 4:] @ df[..., :, None, :4, None])[..., 0, 0]
    return out.reshape(xi.shape[:-1] + f_shape + g_shape)[()]


def phase_coordinates(x, p) -> np.ndarray:
    """The observable z = (x1..x4, p1..p4), shape (..., 8)."""
    return np.concatenate([x, p], axis=-1)


def bracket_matrix(xi, pi, step: float = 1e-5) -> np.ndarray:
    """Finite-difference brackets {z_a, z_b} of z = (x, p) at chart points (..., 4), shape (..., 8, 8)."""
    return poisson_oracle(phase_coordinates, phase_coordinates, xi, pi, step)


def dirac_bracket_matrix(x, p) -> np.ndarray:
    """Closed-form Dirac brackets {z_a, z_b} of z = (x, p) at stacked surface points.

    Maps (..., 4) x and p to (..., 8, 8): {x_i, x_j} = 0,
    {p_i, x_j} = delta_ij - x_i x_j, {p_i, p_j} = J_ij = x_i p_j - x_j p_i.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    px = np.eye(4) - x[..., :, None] * x[..., None, :]
    out = np.zeros(x.shape[:-1] + (8, 8))
    out[..., 4:, :4] = px
    out[..., :4, 4:] = -px.swapaxes(-1, -2)
    out[..., 4:, 4:] = x[..., :, None] * p[..., None, :] - x[..., None, :] * p[..., :, None]
    return out


_BRACKET_BLOCKS = {"xx": (0, 0), "px": (4, 0), "pp": (4, 4)}


def dirac_bracket_basis(state: PhaseState, kind: str, i: int, j: int) -> float:
    """Closed-form Dirac bracket of basis observables; indices are 1-based.

    kind 'xx': {x_i, x_j}; 'px': {p_i, x_j}; 'pp': {p_i, p_j}, read from
    dirac_bracket_matrix.
    """
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise IndexError("indices must lie in 1..4")
    if kind not in _BRACKET_BLOCKS:
        raise ValueError(f"unknown bracket kind {kind!r}")
    row, col = _BRACKET_BLOCKS[kind]
    return float(dirac_bracket_matrix(state.x, state.p)[row + i - 1, col + j - 1])


def coordinate(i: int) -> Observable:
    return lambda x, p: x[..., i - 1]


def momentum(i: int) -> Observable:
    return lambda x, p: p[..., i - 1]


def random_ambient_states(count: int, seed: int = 0) -> list[AmbientState]:
    """Reproducible ambient sample with bounded coordinates and H >= 0.05.

    One stream of uniform 4-vectors, read in order: a row with |xi| < 0.4 is
    skipped, any other row is xi and the next row its pi, and the pair is
    skipped if its H < 0.05.  The stream is drawn in blocks (a (k, 4) draw
    gives the doubles of k draws of 4), and every row's |xi| and every
    candidate pair's H are computed at once: sqrt(_dot) is np.linalg.norm bit
    for bit, and one stacked pull_back gives ambient_map's H.
    """
    rng = np.random.default_rng(seed)
    out: list[AmbientState] = []
    rows = np.empty((0, 4))
    while len(out) < count:
        # two rows per state left; after a skip the block runs out and may leave its last xi
        rows = np.concatenate([rows, rng.uniform(-1.5, 1.5, size=(2 * (count - len(out)), 4))])
        keep = np.sqrt(_dot(rows, rows))[:, 0] >= 0.4
        xi = np.flatnonzero(keep[:-1])
        p = pull_back(rows[xi], rows[xi + 1])[1]
        energy = np.zeros(len(rows))
        energy[xi] = _dot(p, p)[:, 0]
        k = 0
        while k < len(rows) - 1 and len(out) < count:
            if not keep[k]:
                k += 1
                continue
            if energy[k] >= 0.05:
                out.append(AmbientState(xi=rows[k], pi=rows[k + 1]))
            k += 2
        rows = rows[k:]
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
    h = np.sqrt(_dot(p, p))[..., 0]
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


def _great_circle(state0: PhaseState, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions and momenta (len(times), 4) of the motion from a state of energy H > 0:
    the great circle with frequency 2 sqrt(H)."""
    root = math.sqrt(state0.energy)
    w = 2.0 * root
    cos = np.cos(w * times)[:, None]
    sin = np.sin(w * times)[:, None]
    return cos * state0.x + sin * state0.p / root, -root * sin * state0.x + cos * state0.p


def analytic_solution(state0: PhaseState, t: float) -> PhaseState:
    """Closed-form great-circle motion with frequency 2 sqrt(H)."""
    if state0.energy <= DEGENERATE_ENERGY:
        return state0
    xs, ps = _great_circle(state0, np.array([t], dtype=float))
    return project_state(xs[0], ps[0])


def _time_grid(t_end: float, dt: float) -> np.ndarray:
    """Sample times 0, dt, ..., steps * dt with steps = round(t_end / dt), at least one.

    Raises ValueError, before anything is allocated, when t_end / dt is not finite.
    """
    ratio = t_end / dt if dt else math.nan
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / dt is not finite for t_end={t_end!r} and dt={dt!r}")
    return np.arange(max(1, int(round(ratio))) + 1) * dt


def _constant_trajectory(state0: PhaseState, times: np.ndarray, method: str) -> Trajectory:
    """The fixed point of a zero-energy state, sampled at ``times``."""
    return Trajectory(times, np.tile(state0.x, (len(times), 1)), np.tile(state0.p, (len(times), 1)), method)


def analytic_trajectory(state0: PhaseState, t_end: float, dt: float) -> Trajectory:
    times = _time_grid(t_end, dt)
    if state0.energy <= DEGENERATE_ENERGY:
        return _constant_trajectory(state0, times, "analytic")
    xs, ps = _great_circle(state0, times)
    return Trajectory(times=times, xs=xs, ps=ps, method="analytic")


def period(state0: PhaseState) -> float:
    H = state0.energy
    if H <= DEGENERATE_ENERGY:
        return math.inf
    return math.pi / math.sqrt(H)


def integrate(state0: PhaseState, t_end: float, dt: float) -> Trajectory:
    """Fixed-step RK4 on xdot = 2p, pdot = -2(p.p)x with post-step projection.

    Each step then sets x <- x/|x| and p <- p - (x.p)x.  The steps run on
    Python floats with every dot product summed as ((a1 b1 + a2 b2) + a3 b3)
    + a4 b4 and no BLAS call, so the trajectory depends on IEEE double
    arithmetic alone.  Requires finite, positive t_end and dt, and rejects dt
    at or above a tenth of the period as under-resolved; a zero momentum
    state is a fixed point and yields a constant trajectory.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if state0.energy <= DEGENERATE_ENERGY:
        return _constant_trajectory(state0, _time_grid(t_end, dt), "rk4")
    if dt >= period(state0) / 10.0:
        raise ValueError(
            f"dt={dt} under-resolves the motion (period {period(state0):.6g}); need dt < period/10"
        )

    times = _time_grid(t_end, dt)
    out = np.empty((len(times), 8))
    x1, x2, x3, x4 = state0.x.tolist()
    p1, p2, p3, p4 = state0.p.tolist()
    out[0] = x1, x2, x3, x4, p1, p2, p3, p4
    # Stage j at position y and momentum q has x slope 2 q and p slope -2 (q.q) y; stages
    # b, c and d have momenta b = p + (dt/2) ap, c = p + (dt/2) bp and d = p + dt cp.  The
    # x side keeps the textbook step's roundings and drops only its factors of two, each a
    # power-of-two scale of one rounding: (dt/2)(2p) = dt p, (dt/2)(2b) = dt b,
    # dt (2c) = (2dt) c, and (dt/6)(((2p + 4b) + 4c) + 2d) = (dt/3)(((p + 2b) + 2c) + d)
    # with every partial sum halved exactly.  The bits are the textbook step's for any dt
    # whose half is exact, i.e. all but subnormal dt.
    half, sixth = 0.5 * dt, dt / 6.0
    twice, third = 2.0 * dt, 2.0 * sixth
    for k in range(1, len(times)):
        s = -2.0 * (((p1 * p1 + p2 * p2) + p3 * p3) + p4 * p4)
        ap1 = s * x1
        ap2 = s * x2
        ap3 = s * x3
        ap4 = s * x4
        b1 = p1 + half * ap1
        b2 = p2 + half * ap2
        b3 = p3 + half * ap3
        b4 = p4 + half * ap4
        s = -2.0 * (((b1 * b1 + b2 * b2) + b3 * b3) + b4 * b4)
        bp1 = s * (x1 + dt * p1)
        bp2 = s * (x2 + dt * p2)
        bp3 = s * (x3 + dt * p3)
        bp4 = s * (x4 + dt * p4)
        c1 = p1 + half * bp1
        c2 = p2 + half * bp2
        c3 = p3 + half * bp3
        c4 = p4 + half * bp4
        s = -2.0 * (((c1 * c1 + c2 * c2) + c3 * c3) + c4 * c4)
        cp1 = s * (x1 + dt * b1)
        cp2 = s * (x2 + dt * b2)
        cp3 = s * (x3 + dt * b3)
        cp4 = s * (x4 + dt * b4)
        d1 = p1 + dt * cp1
        d2 = p2 + dt * cp2
        d3 = p3 + dt * cp3
        d4 = p4 + dt * cp4
        s = -2.0 * (((d1 * d1 + d2 * d2) + d3 * d3) + d4 * d4)
        dp1 = s * (x1 + twice * c1)
        dp2 = s * (x2 + twice * c2)
        dp3 = s * (x3 + twice * c3)
        dp4 = s * (x4 + twice * c4)
        x1 = x1 + third * (((p1 + 2.0 * b1) + 2.0 * c1) + d1)
        x2 = x2 + third * (((p2 + 2.0 * b2) + 2.0 * c2) + d2)
        x3 = x3 + third * (((p3 + 2.0 * b3) + 2.0 * c3) + d3)
        x4 = x4 + third * (((p4 + 2.0 * b4) + 2.0 * c4) + d4)
        p1 = p1 + sixth * (((ap1 + 2.0 * bp1) + 2.0 * cp1) + dp1)
        p2 = p2 + sixth * (((ap2 + 2.0 * bp2) + 2.0 * cp2) + dp2)
        p3 = p3 + sixth * (((ap3 + 2.0 * bp3) + 2.0 * cp3) + dp3)
        p4 = p4 + sixth * (((ap4 + 2.0 * bp4) + 2.0 * cp4) + dp4)
        r = math.sqrt(((x1 * x1 + x2 * x2) + x3 * x3) + x4 * x4)
        x1 = x1 / r
        x2 = x2 / r
        x3 = x3 / r
        x4 = x4 / r
        r = ((x1 * p1 + x2 * p2) + x3 * p3) + x4 * p4
        p1 = p1 - r * x1
        p2 = p2 - r * x2
        p3 = p3 - r * x3
        p4 = p4 - r * x4
        out[k] = x1, x2, x3, x4, p1, p2, p3, p4
    return Trajectory(times=times, xs=out[:, :4].copy(), ps=out[:, 4:].copy(), method="rk4")


# ---------------------------------------------------------------------------
# constants-of-motion report
# ---------------------------------------------------------------------------


def check_motion_constants(traj: Trajectory) -> list[CheckResult]:
    """Verify the algebraic constants along a trajectory.

    (a) A_j(+-)(t) e^(-+ 2 i t sqrt(H)) is constant; (b) A+.A- = 2H;
    (c) the quadratic Casimir vanishes; (d) both restrictive tensors vanish;
    (e) p = xdot/2 by fourth-order finite differences; plus per-sample
    constraint residuals.  Tolerance: 1e-10 analytic, 1e-6 rk4.
    """
    tolerance = 1e-10 if traj.method == "analytic" else 1e-6
    state0 = traj.state(0)
    H = state0.energy
    if H <= DEGENERATE_ENERGY:
        residual = float(np.abs(traj.ps).max())
        return [CheckResult("motion:degenerate_fixed_point", residual, max(tolerance, 1e-12), note="degenerate")]

    root = math.sqrt(H)
    # the projection traj.state(k) applies, on all samples at once; _dot sums
    # in np.dot's order, so every row equals project_state's bit for bit
    xs = traj.xs / np.sqrt(_dot(traj.xs, traj.xs))
    M = generator_array(xs, traj.ps - _dot(xs, traj.ps) * xs)
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
    p = traj.ps.T
    H = ((p[0] * p[0] + p[1] * p[1]) + p[2] * p[2]) + p[3] * p[3]  # p.p in integrate's order, no BLAS
    for k in range(len(traj)):
        yield [traj.times[k], *traj.xs[k], *traj.ps[k], H[k], *J[k]]


def trajectory_to_csv(traj: Trajectory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for row in _trajectory_rows(traj):
            writer.writerow([repr(float(v)) for v in row])


def trajectory_to_json(traj: Trajectory, path) -> None:
    head = f'"method": {json_value(traj.method)},\n"columns": {json_value(TRAJECTORY_COLUMNS)}'
    rows = ",\n".join(json_value(row) for row in _trajectory_rows(traj))
    with open(path, "w") as fh:
        fh.write("{\n" + head + ',\n"rows": [\n' + rows + "\n]\n}\n")
