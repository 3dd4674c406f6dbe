import csv
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_sga import classical
from sphere_sga.classical import (
    AmbientState,
    PhaseState,
    TRAJECTORY_COLUMNS,
    Trajectory,
    ambient_map,
    analytic_solution,
    analytic_trajectory,
    bracket_matrix,
    check_motion_constants,
    coordinate,
    dirac_bracket_basis,
    dirac_bracket_matrix,
    generator_array,
    integrate,
    momentum,
    period,
    poisson_oracle,
    project_state,
    pull_back,
    random_ambient_states,
    trajectory_to_csv,
    trajectory_to_json,
)

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])


def circle_state(speed: float = 1.0) -> PhaseState:
    return PhaseState(x=E1, p=speed * E2)


class TestPhaseState:
    def test_constraints_enforced(self):
        with pytest.raises(ValueError):
            PhaseState(x=2 * E1, p=E2)
        with pytest.raises(ValueError):
            PhaseState(x=E1, p=E1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "p"])
    def test_non_finite_rejected(self, field, bad):
        coords = {"x": np.array(E1, dtype=float), "p": np.array(E2, dtype=float)}
        coords[field][0 if field == "x" else 1] = bad
        with pytest.raises(ValueError, match="finite"):
            PhaseState(**coords)

    def test_projection_repairs(self):
        s = project_state([2.0, 0, 0, 0], [0.5, 1.0, 0, 0])
        assert abs(s.x @ s.x - 1.0) <= 1e-15
        assert abs(s.x @ s.p) <= 1e-15
        assert s.p[1] == pytest.approx(1.0)

    def test_zero_position_rejected(self):
        with pytest.raises(ValueError):
            project_state([0.0, 0, 0, 0], [0, 1.0, 0, 0])


def angular(i, k):
    """The observable J_ik = x_i p_k - x_k p_i; indices are 1-based."""
    return lambda x, p: x[..., i - 1] * p[..., k - 1] - x[..., k - 1] * p[..., i - 1]


def ambient_map_reference(a: AmbientState) -> PhaseState:
    """The pull-back of one chart point, written on single vectors."""
    r = float(np.linalg.norm(a.xi))
    x = a.xi / r
    p = r * a.pi - float(a.pi @ a.xi) * a.xi / (r * r)
    p = p - (x @ p) * x
    return PhaseState(x=x, p=p)


def gradient_reference(fn, a: AmbientState, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of a pulled-back observable, one chart direction at a time."""
    z0 = np.concatenate([a.xi, a.pi])

    def value(z):
        state = ambient_map_reference(AmbientState(xi=z[:4], pi=z[4:]))
        return float(fn(state.x, state.p))

    d = np.empty(8)
    for k in range(8):
        zp = z0.copy(); zp[k] += step
        zm = z0.copy(); zm[k] -= step
        d[k] = (value(zp) - value(zm)) / (2 * step)
    return d[:4], d[4:]


def bracket_reference(df, dg) -> float:
    (df_dxi, df_dpi), (dg_dxi, dg_dpi) = df, dg
    return float(df_dpi @ dg_dxi - dg_dpi @ df_dxi)


def poisson_oracle_reference(f, g, a: AmbientState, step: float = 1e-5) -> float:
    """The finite-difference bracket of two scalar observables at one chart point."""
    return bracket_reference(gradient_reference(f, a, step), gradient_reference(g, a, step))


def random_ambient_states_reference(count: int, seed: int, skipped: list | None = None) -> list[AmbientState]:
    """The sampler one state at a time: draw xi, skip it if |xi| < 0.4, draw pi, skip the pair
    if H < 0.05.  Each skip appends its kind, "xi" or "H", to ``skipped``."""
    rng = np.random.default_rng(seed)
    out = []
    skipped = [] if skipped is None else skipped
    while len(out) < count:
        xi = rng.uniform(-1.5, 1.5, size=4)
        if np.linalg.norm(xi) < 0.4:
            skipped.append("xi")
            continue
        pi = rng.uniform(-1.5, 1.5, size=4)
        a = AmbientState(xi=xi, pi=pi)
        if ambient_map(a).energy < 0.05:
            skipped.append("H")
            continue
        out.append(a)
    return out


class TestRandomAmbientStates:
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_the_one_state_loop_bit_for_bit(self, seed):
        # the loop's first states do not depend on how many it is asked for
        reference = random_ambient_states_reference(40, seed)
        for count in range(41):
            states = random_ambient_states(count, seed)
            assert [(a.xi.tobytes(), a.pi.tobytes()) for a in states] == [
                (a.xi.tobytes(), a.pi.tobytes()) for a in reference[:count]
            ]

    def test_the_seeds_above_skip_both_kinds(self):
        # a skip makes the sampler's first block run out, so the seeds also read a second block
        skipped = []
        for seed in range(30):
            random_ambient_states_reference(40, seed, skipped)
        assert set(skipped) == {"xi", "H"}


class TestAmbientMap:
    def test_scaling_example(self):
        state = ambient_map(AmbientState(xi=2 * E1, pi=3 * E2))
        assert np.allclose(state.x, E1, atol=1e-15)
        assert np.allclose(state.p, 6 * E2, atol=1e-15)

    def test_radial_momentum_projected_out(self):
        state = ambient_map(AmbientState(xi=E1, pi=5 * E1))
        assert np.abs(state.p).max() <= 1e-15

    def test_zero_position_rejected(self):
        with pytest.raises(ValueError):
            AmbientState(xi=np.zeros(4), pi=E2)

    def test_equals_single_vector_formula_bit_for_bit(self):
        for a in random_ambient_states(6, seed=4):
            state, expected = ambient_map(a), ambient_map_reference(a)
            assert np.array_equal(state.x, expected.x)
            assert np.array_equal(state.p, expected.p)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=8, max_size=8))
    def test_constraints_always_hold(self, values):
        xi = np.array(values[:4])
        if np.linalg.norm(xi) < 0.3:
            xi = xi + 1.0
        state = ambient_map(AmbientState(xi=xi, pi=np.array(values[4:])))
        assert abs(state.x @ state.x - 1.0) <= 1e-12
        assert abs(state.x @ state.p) <= 1e-12


class TestDiracBrackets:
    def test_position_position(self):
        s = circle_state()
        for i in range(1, 5):
            for j in range(1, 5):
                assert dirac_bracket_basis(s, "xx", i, j) == 0.0

    def test_momentum_position_values(self):
        s = circle_state()
        assert dirac_bracket_basis(s, "px", 1, 1) == pytest.approx(0.0)
        assert dirac_bracket_basis(s, "px", 2, 2) == pytest.approx(1.0)

    def test_momentum_momentum_is_angular(self):
        s = circle_state()
        M = generator_array(s.x, s.p)
        assert dirac_bracket_basis(s, "pp", 1, 2) == pytest.approx(M[0, 1])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dirac_bracket_basis(circle_state(), "qq", 1, 1)
        with pytest.raises(IndexError):
            dirac_bracket_basis(circle_state(), "xx", 0, 1)


class TestPoissonOracle:
    def test_reproduces_all_closed_forms(self):
        for a in random_ambient_states(5, seed=7):
            state = ambient_map(a)
            for i in range(1, 5):
                for j in range(1, 5):
                    cases = (
                        ("xx", coordinate(i), coordinate(j)),
                        ("px", momentum(i), coordinate(j)),
                        ("pp", momentum(i), momentum(j)),
                    )
                    for kind, f, g in cases:
                        oracle = poisson_oracle(f, g, a.xi, a.pi)
                        closed = dirac_bracket_basis(state, kind, i, j)
                        assert oracle == pytest.approx(closed, abs=1e-6)

    def test_antisymmetry(self):
        a = random_ambient_states(1, seed=3)[0]
        fwd = poisson_oracle(momentum(1), coordinate(2), a.xi, a.pi)
        bwd = poisson_oracle(coordinate(2), momentum(1), a.xi, a.pi)
        assert fwd == pytest.approx(-bwd, abs=1e-12)

    def test_hamiltonian_flow_direction(self):
        # {H, x_i} = 2 p_i and {H, p_i} = -2 H x_i fix the sign convention
        energy = lambda x, p: (p * p).sum(axis=-1)
        for a in random_ambient_states(3, seed=11):
            state = ambient_map(a)
            H = state.energy
            for i in range(1, 5):
                assert poisson_oracle(energy, coordinate(i), a.xi, a.pi) == pytest.approx(
                    2 * state.p[i - 1], abs=1e-5 * max(1, H)
                )
                assert poisson_oracle(energy, momentum(i), a.xi, a.pi) == pytest.approx(
                    -2 * H * state.x[i - 1], abs=1e-5 * max(1, H) ** 2
                )

    def test_rotation_covariance_of_coordinates(self):
        # {J_ik, x_l} = delta_lk x_i - delta_il x_k
        for a in random_ambient_states(2, seed=5):
            state = ambient_map(a)
            for (i, k) in ((1, 2), (2, 4)):
                j_obs = angular(i, k)
                for l in range(1, 5):
                    expected = (state.x[i - 1] if l == k else 0.0) - (
                        state.x[k - 1] if l == i else 0.0
                    )
                    assert poisson_oracle(j_obs, coordinate(l), a.xi, a.pi) == pytest.approx(expected, abs=1e-6)

    def test_jacobi_identity_numerically(self):
        # nested finite differences: the bracket is canonical in the ambient
        # chart, so the cyclic sum vanishes up to differencing noise; the
        # inner bracket takes the outer surface points as chart points
        def nested(f, g):
            return lambda x, p: poisson_oracle(f, g, x, p, step=1e-5)

        a = random_ambient_states(1, seed=2)[0]
        triples = [
            (coordinate(1), momentum(2), momentum(3)),
            (momentum(1), momentum(2), coordinate(3)),
        ]
        for f, g, h in triples:
            total = (
                poisson_oracle(f, nested(g, h), a.xi, a.pi, step=1e-3)
                + poisson_oracle(g, nested(h, f), a.xi, a.pi, step=1e-3)
                + poisson_oracle(h, nested(f, g), a.xi, a.pi, step=1e-3)
            )
            assert abs(total) <= 1e-4


# observable k of z = (x1..x4, p1..p4), as coordinate(i) or momentum(i)
PHASE_COORDINATES = [coordinate(i) for i in range(1, 5)] + [momentum(i) for i in range(1, 5)]
# (kind, row and column offsets in the (x, p) bracket matrix) of the basis brackets
BASIS_BLOCKS = [("xx", 0, 0), ("px", 4, 0), ("pp", 4, 4)]


class TestBracketMatrix:
    @pytest.mark.parametrize("step", [1e-5, 1e-3])
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_scalar_oracle_bit_for_bit(self, seed, count, step):
        states = random_ambient_states(count, seed=seed)
        B = bracket_matrix([a.xi for a in states], [a.pi for a in states], step=step)
        assert B.shape == (count, 8, 8)
        for s, a in enumerate(states):
            grads = [gradient_reference(fn, a, step) for fn in PHASE_COORDINATES]
            expected = [[bracket_reference(df, dg) for dg in grads] for df in grads]
            assert np.array_equal(B[s], expected), (seed, count, step, s)

    def test_scalar_observables_equal_the_reference_bit_for_bit(self):
        pairs = [(angular(1, 2), coordinate(3)), (momentum(2), angular(2, 4)), (angular(1, 3), angular(3, 4))]
        for a in random_ambient_states(3, seed=9):
            for f, g in pairs:
                for step in (1e-5, 1e-3):
                    assert poisson_oracle(f, g, a.xi, a.pi, step) == poisson_oracle_reference(f, g, a, step)

    def test_stacked_shapes(self):
        states = random_ambient_states(6, seed=4)
        xi = np.array([a.xi for a in states]).reshape(2, 3, 4)
        pi = np.array([a.pi for a in states]).reshape(2, 3, 4)
        assert poisson_oracle(angular(1, 2), coordinate(3), xi, pi).shape == (2, 3)
        assert poisson_oracle(angular(1, 2), classical.phase_coordinates, xi, pi).shape == (2, 3, 8)
        B = bracket_matrix(xi, pi)
        assert B.shape == (2, 3, 8, 8)
        assert np.array_equal(B.reshape(6, 8, 8), bracket_matrix(xi.reshape(6, 4), pi.reshape(6, 4)))

    def test_antisymmetric(self):
        states = random_ambient_states(3, seed=1)
        B = bracket_matrix([a.xi for a in states], [a.pi for a in states])
        assert np.array_equal(B, -B.swapaxes(-1, -2))

    def test_closed_form_matrix_is_the_basis_brackets(self):
        states = [ambient_map(a) for a in random_ambient_states(4, seed=2)]
        C = dirac_bracket_matrix([s.x for s in states], [s.p for s in states])
        assert np.array_equal(C, -C.swapaxes(-1, -2))
        for s, state in enumerate(states):
            for kind, row, col in BASIS_BLOCKS:
                for i in range(1, 5):
                    for j in range(1, 5):
                        assert C[s, row + i - 1, col + j - 1] == dirac_bracket_basis(state, kind, i, j)

    @pytest.mark.parametrize("step", [0.0, 1e-5, 1e-3])
    def test_pull_back_equals_single_vector_formula_bit_for_bit(self, step):
        # at the chart points and at the difference points the oracle evaluates
        states = random_ambient_states(6, seed=4)
        z = np.array([np.concatenate([a.xi, a.pi]) for a in states])
        points = z + step * np.concatenate([np.eye(8), -np.eye(8)])[:, None, :]  # (16, 6, 8)
        x, p = pull_back(points[..., :4], points[..., 4:])
        assert x.shape == p.shape == (16, 6, 4)
        for k in np.ndindex(16, 6):
            expected = ambient_map_reference(AmbientState(xi=points[k][:4], pi=points[k][4:]))
            assert np.array_equal(x[k], expected.x)
            assert np.array_equal(p[k], expected.p)

    def test_pull_back_rounds_the_squared_radius_as_the_scalar_formula(self):
        # for about one radius in a thousand, a float's r**2 (libm pow) and
        # r * r differ in the last bit; pick such points from a random sample
        rng = np.random.default_rng(0)
        xi, pi = rng.uniform(-1.5, 1.5, (2, 20_000, 4))
        r = [float(np.linalg.norm(v)) for v in xi]
        picked = [k for k in range(len(r)) if r[k] ** 2 != r[k] * r[k]][:8]
        assert len(picked) == 8
        x, p = pull_back(xi[picked], pi[picked])
        for k, n in enumerate(picked):
            expected = ambient_map_reference(AmbientState(xi=xi[n], pi=pi[n]))
            assert np.array_equal(x[k], expected.x)
            assert np.array_equal(p[k], expected.p)

    def test_zero_position_raises(self):
        xi = np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 0]])
        with pytest.raises(ValueError, match="nonzero"):
            pull_back(xi, np.ones((2, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_non_finite_point_raises_without_warnings(self, bad):
        # pytest turns a RuntimeWarning into an error, so an overflow must
        # surface only as the ValueError
        xi = np.array([[1.0, 0, 0, 0], [bad, 0, 0, 0]])
        pi = np.array([[0.0, 1, 0, 0], [0.0, bad, 0, 0]])
        with pytest.raises(ValueError, match="finite"):
            pull_back(xi, pi)
        with pytest.raises(ValueError, match="finite"):
            bracket_matrix(np.array([[1.0, 0, 0, 0]]), np.array([[0.0, 1, 0, 0]]), step=1e200)

    def test_first_failing_point_is_reported(self):
        # the second point violates x.p = 0 through round-off on a huge
        # momentum; the third is zero; the error names the second
        xi = np.array([[1.0, 0, 0, 0], [0.6, 0.8, 0, 0], [0.0, 0, 0, 0]])
        pi = np.array([[0.0, 1, 0, 0], [1e20, 0, 0, 0], [0.0, 1, 0, 0]])
        with pytest.raises(ValueError, match="transversality"):
            pull_back(xi, pi)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="4-vectors"):
            pull_back(np.ones((2, 4)), np.ones((3, 4)))
        with pytest.raises(ValueError, match="4-vectors"):
            pull_back(np.ones(3), np.ones(3))


def ladder(M, sign):
    """A_j(+-) = M_5j -+ i M_6j from generator arrays."""
    return M[..., 4, :4] - 1j * sign * M[..., 5, :4]


def random_surface(count, seed):
    states = [ambient_map(a) for a in random_ambient_states(count, seed=seed)]
    return np.array([s.x for s in states]), np.array([s.p for s in states])


class TestGenerators:
    def test_circle_values(self):
        M = generator_array(E1, E2)
        assert M.shape == (6, 6)
        assert M[4, 5] == pytest.approx(1.0)  # h = sqrt(H), H = 1
        assert M[0, 1] == pytest.approx(1.0)  # J12
        assert np.allclose(M[:4, 4], [0.0, -1.0, 0.0, 0.0])  # K
        assert np.allclose(M[:4, 5], [1.0, 0.0, 0.0, 0.0])  # L
        assert M[5, 4] == pytest.approx(-1.0)

    def test_antisymmetric_and_stacked(self):
        xs, ps = random_surface(4, seed=31)
        M = generator_array(xs, ps)
        assert M.shape == (4, 6, 6)
        assert np.array_equal(M, -M.swapaxes(-1, -2))
        for k in range(4):
            assert np.array_equal(M[k], generator_array(xs[k], ps[k]))

    def test_rest_state_degenerates(self):
        M = generator_array(E1, np.zeros(4))
        assert M[4, 5] == 0.0
        assert np.abs(M[:4, 4:]).max() == 0.0

    def test_momentum_equals_minus_K(self):
        xs, ps = random_surface(4, seed=13)
        assert np.allclose(generator_array(xs, ps)[:, :4, 4], -ps, atol=1e-12)

    def test_energy_is_half_angular_square(self):
        xs, ps = random_surface(4, seed=23)
        M = generator_array(xs, ps)
        H = np.einsum("ki,ki->k", ps, ps)
        assert np.allclose(M[:, 4, 5] ** 2, H, rtol=1e-12, atol=0)
        assert np.allclose(0.5 * np.sum(M[:, :4, :4] ** 2, axis=(1, 2)), H, rtol=1e-12, atol=0)

    def test_restrictive_tensors_vanish(self):
        xs, ps = random_surface(4, seed=17)
        M = generator_array(xs, ps)
        for k in range(4):
            _, tensor_t, tensor_r = classical._invariant_residuals(M[k : k + 1])
            scale = max(1.0, float(ps[k] @ ps[k]))
            assert tensor_t <= 1e-12 * scale
            assert tensor_r <= 1e-12 * scale**2

    def test_quadratic_casimir_vanishes(self):
        xs, ps = random_surface(4, seed=19)
        M = generator_array(xs, ps)
        for k in range(4):
            casimir, _, _ = classical._invariant_residuals(M[k : k + 1])
            assert casimir <= 1e-12 * max(1.0, float(ps[k] @ ps[k]))

    def test_invariants_do_not_vanish_off_the_surface(self):
        # negative control: the battery's evaluation on unprojected samples of
        # an H = 1 circle; |x| = s gives max|C2| = 2(s^4 - 1), max|T| = s^4 - 1
        # and max|R| = 8 s (s^2 - 1); x.p = 0.5 gives max|T| = 0.25
        s0 = circle_state()
        traj = analytic_trajectory(s0, period(s0), period(s0) / 100)
        s = 1.2
        casimir, tensor_t, tensor_r = classical._invariant_residuals(generator_array(s * traj.xs, traj.ps))
        assert casimir == pytest.approx(2 * (s**4 - 1), rel=1e-12)
        assert tensor_t == pytest.approx(s**4 - 1, rel=1e-12)
        assert tensor_r == pytest.approx(8 * s * (s**2 - 1), rel=1e-12)
        _, tensor_t, _ = classical._invariant_residuals(generator_array(traj.xs, traj.ps + 0.5 * traj.xs))
        assert tensor_t == pytest.approx(0.25, rel=1e-12)

    def test_amplitude_product(self):
        M = generator_array(E1, E2)
        prod = complex(np.sum(ladder(M, +1) * ladder(M, -1)))
        assert prod == pytest.approx(2.0)  # 2H with H = 1


class TestAnalyticMotion:
    def test_time_zero(self):
        s0 = circle_state()
        s = analytic_solution(s0, 0.0)
        assert np.allclose(s.x, s0.x) and np.allclose(s.p, s0.p)

    def test_half_turn(self):
        s0 = circle_state()  # H = 1, frequency 2
        s = analytic_solution(s0, math.pi / 2)
        assert np.allclose(s.x, -s0.x, atol=1e-12)
        assert np.allclose(s.p, -s0.p, atol=1e-12)

    def test_period_return(self):
        s0 = circle_state(1.3)
        T = period(s0)
        s = analytic_solution(s0, T)
        assert np.abs(s.x - s0.x).max() <= 1e-12
        assert np.abs(s.p - s0.p).max() <= 1e-12

    def test_degenerate_is_fixed_point(self):
        s0 = PhaseState(x=E1, p=np.zeros(4))
        s = analytic_solution(s0, 5.0)
        assert np.allclose(s.x, s0.x)
        assert period(s0) == math.inf

    def test_ladder_phase_evolution(self):
        s0 = circle_state(1.7)
        root = math.sqrt(s0.energy)
        times = np.array([0.0, 0.3, 1.1, 2.9])
        states = [analytic_solution(s0, t) for t in times]
        xs, ps = np.array([s.x for s in states]), np.array([s.p for s in states])
        M = generator_array(xs, ps)
        drift = ladder(M, +1) * np.exp(-2j * times * root)[:, None] - ladder(M, +1)[0]
        assert np.abs(drift).max() <= 1e-12
        # the battery's check on the same unevenly spaced samples
        traj = Trajectory(times=times, xs=xs, ps=ps, method="analytic")
        (ladder_check,) = [r for r in check_motion_constants(traj) if r.name == "motion:ladder_phase_constants"]
        assert ladder_check.passed and ladder_check.residual <= 1e-12


class TestIntegration:
    def test_rk4_tracks_analytic(self):
        s0 = circle_state()
        T = period(s0)
        traj = integrate(s0, 10 * T, T / 1000)
        worst = 0.0
        for k in (100, 2500, 5000, 7500, 10000):
            exact = analytic_solution(s0, traj.times[k])
            worst = max(worst, np.abs(traj.xs[k] - exact.x).max())
        assert worst <= 1e-6

    def test_energy_and_angular_momentum_drift(self):
        s0 = circle_state()
        T = period(s0)
        traj = integrate(s0, 10 * T, T / 1000)
        H = np.einsum("ki,ki->k", traj.ps, traj.ps)
        assert np.abs(H - H[0]).max() / H[0] <= 1e-8
        J12 = traj.xs[:, 0] * traj.ps[:, 1] - traj.xs[:, 1] * traj.ps[:, 0]
        assert np.abs(J12 - J12[0]).max() <= 1e-8

    def test_constraint_projection(self):
        s0 = circle_state(0.7)
        traj = integrate(s0, 3.0, 1e-3)
        assert traj.constraint_residual() <= 1e-12

    def test_under_resolved_dt_rejected(self):
        s0 = circle_state()
        with pytest.raises(ValueError):
            integrate(s0, 10.0, period(s0) / 5)
        with pytest.raises(ValueError):
            integrate(s0, 10.0, -0.1)

    @pytest.mark.parametrize(
        "t_end, dt", [(math.inf, 0.01), (math.nan, 0.01), (0.0, 0.01), (-5.0, 0.01), (1.0, math.inf)]
    )
    @pytest.mark.parametrize("p", [np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4)])
    def test_non_finite_or_non_positive_times_rejected(self, t_end, dt, p):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            integrate(PhaseState(x=E1, p=p), t_end, dt)

    @pytest.mark.parametrize("t_end, dt", [(10.0, 1e-320), (1e300, 1e-10), (1e308, 5e-324)])
    @pytest.mark.parametrize("p", [np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4)])
    @pytest.mark.parametrize("run", [integrate, analytic_trajectory])
    def test_overflowing_step_count_rejected(self, run, t_end, dt, p):
        # t_end / dt overflows to inf: a ValueError naming both, not round()'s OverflowError
        with pytest.raises(ValueError, match=re.escape(f"t_end / dt is not finite for t_end={t_end!r} and dt={dt!r}")):
            run(PhaseState(x=E1, p=p), t_end, dt)

    def test_degenerate_constant_trajectory(self):
        s0 = PhaseState(x=E1, p=np.zeros(4))
        traj = integrate(s0, 1.0, 0.1)
        assert np.abs(traj.xs - s0.x).max() == 0.0
        assert np.abs(traj.ps).max() == 0.0

    def test_samples_are_c_contiguous_float64(self):
        traj = integrate(unit_tangent_state(0), 0.5, 1e-2)
        for a in (traj.xs, traj.ps):
            assert a.shape == (51, 4) and a.dtype == np.float64 and a.flags["C_CONTIGUOUS"]


def unit_tangent_state(seed: int) -> PhaseState:
    """x uniform on S^3 and a unit tangent p (H = 1), as the benchmark draws its motion."""
    rng = np.random.default_rng([seed, 2])
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    p = rng.normal(size=4)
    p -= (x @ p) * x
    p /= np.linalg.norm(p)
    p -= (x @ p) * x
    return PhaseState(x=x, p=p)


def integrate_reference(state0: PhaseState, t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The same RK4 step and projection on numpy 8-vectors (dot products through np.dot)."""

    def rhs(y):
        x, p = y[:4], y[4:]
        return np.concatenate([2.0 * p, -2.0 * float(p @ p) * x])

    steps = max(1, int(round(t_end / dt)))
    xs, ps = np.empty((steps + 1, 4)), np.empty((steps + 1, 4))
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
    return xs, ps


class TestIntegrationReference:
    """integrate sums its dot products in a fixed order, np.dot in whatever order
    the BLAS kernel picks: the two may part only by round-off."""

    def assert_tracks_reference(self, s0, t_end, dt):
        traj = integrate(s0, t_end, dt)
        xs, ps = integrate_reference(s0, t_end, dt)
        assert np.abs(traj.xs - xs).max() <= 1e-13
        assert np.abs(traj.ps - ps).max() <= 1e-13
        reference = Trajectory(times=traj.times, xs=xs, ps=ps, method="rk4")
        passed = [(r.name, r.passed) for r in check_motion_constants(traj)]
        assert passed == [(r.name, r.passed) for r in check_motion_constants(reference)]
        assert all(flag for _, flag in passed), passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_4000_steps_from_unit_tangent_states(self, seed):
        self.assert_tracks_reference(unit_tangent_state(seed), 4.0, 1e-3)

    def test_simulate_default_state(self):
        self.assert_tracks_reference(PhaseState(x=E1, p=E2), 2.0, 0.01)

    @pytest.mark.parametrize(
        "state, t_end, dt, digest",
        [
            (0, 4.0, 1e-3, "ce691ea227696861916dcff762fc0f382bce387db833af924511afdd071d6f0a"),
            (1, 4.0, 1e-3, "046dac29fa90899d7ab00c466b3b2b41efc7d32b070bc37b57a2cc87138b71e0"),
            (2, 4.0, 1e-3, "0baa8cfb1e0b9cde490c97e001b05613719b7bb1e2d6866e28a2bd1bb9dec3bb"),
            (None, 2.0, 0.01, "afa4a00004041c927a5b12273ddf4bac18ecb8c736e27f6ac4259545f55fcc2b"),
        ],
    )
    def test_whole_trajectories_are_pinned_bit_for_bit(self, state, t_end, dt, digest):
        # every sample, not only the last: a one-ulp drift mid-trajectory moves the hash; None
        # is simulate's default state
        s0 = PhaseState(x=E1, p=E2) if state is None else unit_tangent_state(state)
        traj = integrate(s0, t_end, dt)
        assert hashlib.sha256(traj.xs.tobytes() + traj.ps.tobytes()).hexdigest() == digest

    def test_last_sample_is_pinned_bit_for_bit(self):
        # IEEE double arithmetic in a fixed order gives these bits on any host;
        # summing a single dot product in another order moves them
        s0 = PhaseState(x=np.array([0.5, 0.5, 0.5, 0.5]), p=np.array([0.3, -0.1, 0.2, -0.4]))
        traj = integrate(s0, 1.0, 1e-2)
        assert [v.hex() for v in traj.xs[-1]] == [
            "0x1.6e805be9b7397p-1", "0x1.105ac5426dad3p-4", "0x1.1b631b195cd88p-1", "-0x1.ae98d39182da7p-2",
        ]
        assert [v.hex() for v in traj.ps[-1]] == [
            "-0x1.b3028f811a33fp-4", "-0x1.2834cca1556c7p-2", "-0x1.373b5c21148a4p-3", "-0x1.b4cbeb3220945p-2",
        ]


class TestMotionConstants:
    def test_analytic_trajectory_tight(self):
        s0 = circle_state()
        T = period(s0)
        traj = analytic_trajectory(s0, 2 * T, T / 20000)
        results = check_motion_constants(traj)
        assert all(r.passed for r in results), [(r.name, r.residual) for r in results]
        assert all(r.residual <= 1e-10 for r in results)

    def test_rk4_trajectory(self):
        s0 = circle_state()
        T = period(s0)
        traj = integrate(s0, 10 * T, T / 1000)
        results = check_motion_constants(traj)
        assert all(r.passed for r in results), [(r.name, r.residual) for r in results]

    def test_samples_are_projected_before_the_invariants(self):
        s0 = circle_state()
        T = period(s0)
        exact = analytic_trajectory(s0, T, T / 1000)
        traj = Trajectory(times=exact.times, xs=1.2 * exact.xs, ps=exact.ps, method="analytic")
        passed = {r.name: r.passed for r in check_motion_constants(traj)}
        invariants = ("ladder_phase_constants", "amplitude_product", "quadratic_casimir", "tensor_T", "tensor_R")
        assert all(passed[f"motion:{name}"] for name in invariants), passed
        assert not passed["motion:constraints"]

    def test_non_finite_sample_fails_every_check(self):
        s0 = circle_state()
        T = period(s0)
        traj = analytic_trajectory(s0, T, T / 1000)
        traj.xs[500, 0] = np.nan
        failed = [r.name for r in check_motion_constants(traj) if not r.passed]
        assert len(failed) == 7, failed

    def test_degenerate_status(self):
        traj = integrate(PhaseState(x=E1, p=np.zeros(4)), 1.0, 0.1)
        results = check_motion_constants(traj)
        assert len(results) == 1
        assert results[0].note == "degenerate"
        assert results[0].passed


class TestFrequency:
    def test_measured_period_matches_formula(self, measured_period):
        s0 = circle_state()
        T = period(s0)
        traj = integrate(s0, 10 * T, T / 1000)
        assert measured_period(traj) == pytest.approx(T, rel=1e-6)

    def test_frequency_scales_with_root_energy(self, measured_period):
        t1 = integrate(circle_state(1.0), 10 * period(circle_state(1.0)), period(circle_state(1.0)) / 1000)
        s2 = circle_state(math.sqrt(2.0))  # doubles H
        t2 = integrate(s2, 10 * period(s2), period(s2) / 1000)
        ratio = measured_period(t1) / measured_period(t2)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-6)


class TestExport:
    def test_csv_columns_and_roundtrip(self, tmp_path):
        traj = integrate(circle_state(), 0.5, 1e-2)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRAJECTORY_COLUMNS
        assert len(rows) == len(traj) + 1
        first = [float(v) for v in rows[1]]
        assert first[1] == 1.0 and first[6] == 1.0  # x1 and p2
        assert first[9] == pytest.approx(1.0)  # H
        assert first[10] == pytest.approx(1.0)  # J12

    @pytest.mark.parametrize("seed", [None, 0])  # simulate's default state, a benchmark state
    def test_h_column_is_the_fixed_order_sum_bit_for_bit(self, tmp_path, seed):
        # integrate sums p.p as ((p1 p1 + p2 p2) + p3 p3) + p4 p4 on IEEE doubles; the file's H
        # column does too, where a BLAS dot would round by the kernel the host picks
        traj = integrate(circle_state() if seed is None else unit_tangent_state(seed), 2.0, 1e-2)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        with open(path) as fh:
            written = [float(row[9]).hex() for row in list(csv.reader(fh))[1:]]
        assert written == [(((p1 * p1 + p2 * p2) + p3 * p3) + p4 * p4).hex() for p1, p2, p3, p4 in traj.ps.tolist()]

    def test_json_export(self, tmp_path):
        traj = integrate(circle_state(), 0.2, 1e-2)
        path = tmp_path / "traj.json"
        trajectory_to_json(traj, path)
        doc = json.loads(path.read_text())
        assert doc["columns"] == list(TRAJECTORY_COLUMNS)
        assert doc["method"] == "rk4"
        assert len(doc["rows"]) == len(traj)
