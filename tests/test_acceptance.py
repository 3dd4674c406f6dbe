"""Acceptance criteria, one test per criterion, at truncation N = 6.

Each test prints a single PASS/FAIL line (run with -s or -rA to see them all)
and asserts the stated tolerance.
"""

import time
from itertools import combinations

import numpy as np

from sphere_sga import classical
from sphere_sga.hilbert import orthonormalize
from sphere_sga.operators import build_H, build_J, level_vector
from sphere_sga.verify import (
    check_casimirs,
    check_commutators,
    check_eigenstates,
    check_f_recursion,
    check_restrictive,
    eigenstate_vector,
    f_scalar,
    so3_demo,
    spin_matrices,
)

from conftest import dense_residual

N = 6


def _line(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {status}{extra}")


def test_criterion_01_spectrum_and_runtime():
    t0 = time.perf_counter()
    space = orthonormalize(N)
    H = build_H(space, build_J(space))
    eigenvalues = np.linalg.eigvalsh(H.matrix)
    elapsed = time.perf_counter() - t0

    worst = 0.0
    pos = 0
    for n in range(N + 1):
        mult = (n + 1) ** 2
        block = eigenvalues[pos : pos + mult]
        pos += mult
        worst = max(worst, float(np.abs(block - n * (n + 2)).max()))
    ok = worst <= 1e-10 and pos == space.dim and elapsed < 5.0
    _line(1, "spectrum n(n+2) with degeneracy (n+1)^2", ok, f"residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert pos == space.dim == 140
    assert elapsed < 5.0


def test_criterion_02_so42_closure(ops6):
    results = [r for r in check_commutators(ops6) if r.name.startswith("comm:[M")]
    assert len(results) == 105
    worst = max(r.residual for r in results)
    ok = worst <= 1e-10
    _line(2, "all 105 generator commutators", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_03_restrictive_relations(ops6):
    results = check_restrictive(ops6, c=2.0)
    tensor_results = [r for r in results if r.name.startswith(("T~", "R_"))]
    worst = max(r.residual for r in tensor_results)
    control = check_restrictive(ops6, c=0.0)
    control_failed = {r.name for r in control if not r.passed}
    expected_failures = {"T~_11", "T~_22", "T~_33", "T~_44", "T~_55", "T~_66"}
    ok = worst <= 1e-10 and expected_failures <= control_failed
    _line(3, "restrictive tensors vanish at c=2; c=0 control fails", ok, f"max residual {worst:.2e}")
    assert worst <= 1e-10
    assert expected_failures <= control_failed


def test_criterion_04_casimirs(ops6):
    results = {r.name: r for r in check_casimirs(ops6)}
    worst = max(
        results[k].residual for k in ("casimir:C2", "casimir:C2_dual", "casimir:C3")
    )
    ok = worst <= 1e-10
    _line(4, "C2 = -6, dual contraction = 0, C3 = 0", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_05_ladder_structure(ops6):
    space = ops6.space
    zero = np.zeros((space.dim, space.dim), dtype=complex)

    vacuum = max(float(np.linalg.norm(a.matrix[:, :1])) for a in ops6.a_minus)
    sq_plus = dense_residual(sum(a.matrix @ a.matrix for a in ops6.a_plus), zero, space, N - 2)
    sq_minus = dense_residual(sum(a.matrix @ a.matrix for a in ops6.a_minus), zero, space, N - 2)
    number = dense_residual(
        sum(p.matrix @ m.matrix for p, m in zip(ops6.a_plus, ops6.a_minus)),
        np.diag(level_vector(space, lambda n: 2.0 * n * n)),
        space,
        N - 1,
    )

    eigen = check_eigenstates(ops6)  # levels 1..4
    rank_ok = all(r.residual == 0.0 for r in eigen if r.name.startswith("eigen:rank"))
    eig_worst = max(r.residual for r in eigen if not r.name.startswith("eigen:rank"))

    worst = max(vacuum, sq_plus, sq_minus, number, eig_worst)
    ok = worst <= 1e-10 and rank_ok
    _line(
        5,
        "ladder annihilation, contracted squares, 2n^2 number value, eigenstate span",
        ok,
        f"max residual {worst:.2e}",
    )
    assert vacuum <= 1e-10
    assert sq_plus <= 1e-10 and sq_minus <= 1e-10
    assert number <= 1e-10
    assert rank_ok and eig_worst <= 1e-10


def test_criterion_06_position_momentum_contract(ops6):
    space = ops6.space
    eye = np.eye(space.dim, dtype=complex)
    X = [x.matrix for x in ops6.X]
    P = [p.matrix for p in ops6.P]

    res_xx = max(
        dense_residual(X[i] @ X[j] - X[j] @ X[i], 0 * eye, space, N - 2) for i, j in combinations(range(4), 2)
    )
    res_sum = dense_residual(sum(x @ x for x in X), eye, space, N - 2)
    xp = sum(X[i] @ P[i] for i in range(4))
    px = sum(P[i] @ X[i] for i in range(4))
    res_anti = dense_residual(xp + px, 0 * eye, space, N - 2)
    res_xp = dense_residual(xp, 1.5j * eye, space, N - 2)
    res_h = dense_residual(ops6.H.matrix, sum(p @ p for p in P) - 2.25 * eye, space, N - 2)

    worst = max(res_xx, res_sum, res_anti, res_xp, res_h)
    ok = worst <= 1e-10
    _line(6, "[X,X]=0, sum X^2=1, XP+PX=0, XP=3i/2, H=P^2-9/4", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_07_gamma_ratio_recursion(ops6):
    scalar_worst = max(
        abs(f_scalar(h) * f_scalar(h + 1) - (2 * h + 1)) / (2 * h + 1) for h in range(1, 21)
    )
    results = {r.name: r for r in check_f_recursion(ops6)}
    matrix_worst = max(results["f:boost_chain"].residual, results["f:momentum_chain"].residual)
    ok = scalar_worst <= 1e-12 and matrix_worst <= 1e-8
    _line(
        7,
        "f(h)f(h+1)=2h+1 for h=1..20 and operator chains",
        ok,
        f"scalar {scalar_worst:.2e}, matrix {matrix_worst:.2e}",
    )
    assert scalar_worst <= 1e-12
    assert matrix_worst <= 1e-8


def test_criterion_08_bracket_oracle():
    states = classical.random_ambient_states(20, seed=42)
    worst = 0.0
    for a in states:
        phase = classical.ambient_map(a)
        for i in range(1, 5):
            for j in range(1, 5):
                for kind, f, g in (
                    ("xx", classical.coordinate(i), classical.coordinate(j)),
                    ("px", classical.momentum(i), classical.coordinate(j)),
                    ("pp", classical.momentum(i), classical.momentum(j)),
                ):
                    oracle = classical.poisson_oracle(f, g, a.xi, a.pi)
                    closed = classical.dirac_bracket_basis(phase, kind, i, j)
                    worst = max(worst, abs(oracle - closed))
    ok = worst <= 1e-6
    _line(8, "finite-difference brackets match Dirac brackets at 20 states", ok, f"max |diff| {worst:.2e}")
    assert ok


def test_criterion_09_classical_motion(measured_period):
    s0 = classical.PhaseState(x=np.array([1.0, 0, 0, 0]), p=np.array([0, 1.0, 0, 0]))
    T = classical.period(s0)

    traj = classical.integrate(s0, 10 * T, T / 1000)
    deviation = 0.0
    for k in range(0, len(traj), 250):
        exact = classical.analytic_solution(s0, traj.times[k])
        deviation = max(deviation, float(np.abs(traj.xs[k] - exact.x).max()))
    H_series = np.einsum("ki,ki->k", traj.ps, traj.ps)
    h_drift = float(np.abs(H_series - H_series[0]).max() / H_series[0])
    j_drift = 0.0
    for (i, j) in combinations(range(4), 2):
        series = traj.xs[:, i] * traj.ps[:, j] - traj.xs[:, j] * traj.ps[:, i]
        j_drift = max(j_drift, float(np.abs(series - series[0]).max()))
    rk4_results = {r.name: r for r in classical.check_motion_constants(traj)}
    phase_const = rk4_results["motion:ladder_phase_constants"].residual

    fine = classical.analytic_trajectory(s0, 2 * T, T / 20000)
    exact_results = {r.name: r for r in classical.check_motion_constants(fine)}
    amplitude = exact_results["motion:amplitude_product"].residual
    casimir = exact_results["motion:quadratic_casimir"].residual

    period_err = abs(measured_period(traj) - T) / T

    ok = (
        deviation <= 1e-6
        and h_drift <= 1e-8
        and j_drift <= 1e-8
        and phase_const <= 1e-6
        and amplitude <= 1e-10
        and casimir <= 1e-10
        and period_err <= 1e-6
    )
    _line(
        9,
        "integrator accuracy, drifts, phase constants, amplitudes, period",
        ok,
        f"|x-exact| {deviation:.2e}, drift {max(h_drift, j_drift):.2e}, period {period_err:.2e}",
    )
    assert deviation <= 1e-6
    assert h_drift <= 1e-8 and j_drift <= 1e-8
    assert phase_const <= 1e-6
    assert amplitude <= 1e-10 and casimir <= 1e-10
    assert period_err <= 1e-6


def test_criterion_10_spin_demonstration():
    results = {r.name: r for r in so3_demo()}
    half_exact = results["so3:spin_half_restriction"].residual == 0.0
    spins = spin_matrices(2)
    t11 = 2 * spins[0] @ spins[0] - 0.5 * np.eye(3)
    one_violates = np.linalg.norm(t11) > 0.5
    ok = half_exact and one_violates
    _line(10, "spin-1/2 satisfies the restriction exactly; spin-1 violates it", ok)
    assert half_exact
    assert one_violates
