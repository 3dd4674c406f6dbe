import csv
import json
import math

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
    check_motion_constants,
    coordinate,
    dirac_bracket_basis,
    generator_array,
    integrate,
    measured_period,
    momentum,
    period,
    poisson_oracle,
    project_state,
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
                        oracle = poisson_oracle(f, g, a)
                        closed = dirac_bracket_basis(state, kind, i, j)
                        assert oracle == pytest.approx(closed, abs=1e-6)

    def test_antisymmetry(self):
        a = random_ambient_states(1, seed=3)[0]
        fwd = poisson_oracle(momentum(1), coordinate(2), a)
        bwd = poisson_oracle(coordinate(2), momentum(1), a)
        assert fwd == pytest.approx(-bwd, abs=1e-12)

    def test_hamiltonian_flow_direction(self):
        # {H, x_i} = 2 p_i and {H, p_i} = -2 H x_i fix the sign convention
        energy = lambda s: float(s.p @ s.p)
        for a in random_ambient_states(3, seed=11):
            state = ambient_map(a)
            H = state.energy
            for i in range(1, 5):
                assert poisson_oracle(energy, coordinate(i), a) == pytest.approx(
                    2 * state.p[i - 1], abs=1e-5 * max(1, H)
                )
                assert poisson_oracle(energy, momentum(i), a) == pytest.approx(
                    -2 * H * state.x[i - 1], abs=1e-5 * max(1, H) ** 2
                )

    def test_rotation_covariance_of_coordinates(self):
        # {J_ik, x_l} = delta_lk x_i - delta_il x_k
        for a in random_ambient_states(2, seed=5):
            state = ambient_map(a)
            for (i, k) in ((1, 2), (2, 4)):
                j_obs = lambda s, i=i, k=k: float(s.x[i - 1] * s.p[k - 1] - s.x[k - 1] * s.p[i - 1])
                for l in range(1, 5):
                    expected = (state.x[i - 1] if l == k else 0.0) - (
                        state.x[k - 1] if l == i else 0.0
                    )
                    assert poisson_oracle(j_obs, coordinate(l), a) == pytest.approx(expected, abs=1e-6)

    def test_jacobi_identity_numerically(self):
        # nested finite differences: the bracket is canonical in the ambient
        # chart, so the cyclic sum vanishes up to differencing noise
        def lift(state):
            return AmbientState(xi=state.x, pi=state.p)

        def nested(f, g):
            return lambda s: poisson_oracle(f, g, lift(s), step=1e-5)

        a = random_ambient_states(1, seed=2)[0]
        triples = [
            (coordinate(1), momentum(2), momentum(3)),
            (momentum(1), momentum(2), coordinate(3)),
        ]
        for f, g, h in triples:
            total = (
                poisson_oracle(f, nested(g, h), a, step=1e-3)
                + poisson_oracle(g, nested(h, f), a, step=1e-3)
                + poisson_oracle(h, nested(f, g), a, step=1e-3)
            )
            assert abs(total) <= 1e-4


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

    def test_degenerate_constant_trajectory(self):
        s0 = PhaseState(x=E1, p=np.zeros(4))
        traj = integrate(s0, 1.0, 0.1)
        assert np.abs(traj.xs - s0.x).max() == 0.0
        assert np.abs(traj.ps).max() == 0.0


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
    def test_measured_period_matches_formula(self):
        s0 = circle_state()
        T = period(s0)
        traj = integrate(s0, 10 * T, T / 1000)
        assert measured_period(traj) == pytest.approx(T, rel=1e-6)

    def test_frequency_scales_with_root_energy(self):
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

    def test_json_export(self, tmp_path):
        traj = integrate(circle_state(), 0.2, 1e-2)
        path = tmp_path / "traj.json"
        trajectory_to_json(traj, path)
        doc = json.loads(path.read_text())
        assert doc["columns"] == list(TRAJECTORY_COLUMNS)
        assert doc["method"] == "rk4"
        assert len(doc["rows"]) == len(traj)
