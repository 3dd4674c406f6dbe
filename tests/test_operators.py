import math
from itertools import combinations

import numpy as np
import pytest

from sphere_sga import operators
from sphere_sga.hilbert import monomial, orthonormalize
from sphere_sga.operators import (
    OperatorRep,
    OperatorSet,
    assemble_so42,
    build_H,
    build_J,
    build_X,
    build_h,
    j_full,
    level_vector,
)
from sphere_sga.verify import interior_cut, rel_residual


def _res(lhs, rhs, space, k):
    return rel_residual(lhs, rhs, interior_cut(space, k))


def block_map_reference(rep, tol=1e-12):
    """Source level -> target levels of the blocks above tol * max(1, |M|_F): a scan of the dense matrix."""
    m, space = rep.matrix, rep.space
    scale = max(1.0, float(np.linalg.norm(m)))
    blocks = {}
    for n in range(space.n_max + 1):
        targets = tuple(
            t for t in range(space.n_max + 1)
            if np.linalg.norm(m[space.level_slice(t), space.level_slice(n)]) > tol * scale
        )
        if targets:
            blocks[n] = targets
    return blocks


def hermiticity_error(rep):
    return np.abs(rep.matrix - rep.matrix.conj().T).max()


class TestAngularMomentum:
    def test_annihilates_the_constant(self, ops4):
        v = np.zeros(ops4.space.dim, dtype=complex)
        v[0] = 1.0
        for rep in ops4.J.values():
            assert np.linalg.norm(rep.matrix @ v) <= 1e-14

    def test_rotates_coordinates(self, ops4):
        space = ops4.space
        v = space.poly_to_vector(monomial((1, 0, 0, 0), 1.0))
        w = ops4.J[(1, 2)].matrix @ v
        rotated = space.vector_to_poly(w, 1)
        expected = monomial((0, 1, 0, 0), 1j)  # J_12 x1 = +i x2
        assert (rotated - expected).coeff_norm() <= 1e-12
        v2 = space.poly_to_vector(monomial((0, 1, 0, 0), 1.0))
        back = space.vector_to_poly(ops4.J[(1, 2)].matrix @ v2, 1)
        assert (back - monomial((1, 0, 0, 0), -1j)).coeff_norm() <= 1e-12

    def test_level_preserving_and_hermitian(self, ops4):
        for rep in ops4.J.values():
            assert hermiticity_error(rep) <= 1e-12
            for src, targets in block_map_reference(rep).items():
                assert targets == (src,)

    def test_hamiltonian_spectrum_per_level(self, ops4):
        H = ops4.H.matrix
        for n in range(ops4.space.n_max + 1):
            sl = ops4.space.level_slice(n)
            block = H[sl, sl]
            assert np.abs(block - n * (n + 2) * np.eye((n + 1) ** 2)).max() <= 1e-12


class TestPosition:
    def test_ground_to_first_matrix_element(self, ops4):
        # <normalized x1 | X_1 | normalized 1> = 1/2
        x1 = ops4.X[0].matrix
        sl1 = ops4.space.level_slice(1)
        column = x1[sl1, 0]
        assert column[0] == pytest.approx(0.5, abs=1e-14)
        assert np.abs(column[1:]).max() <= 1e-14

    def test_commuting_on_interior(self, ops4):
        space = ops4.space
        X = [x.matrix for x in ops4.X]
        zero = np.zeros_like(X[0])
        worst = max(_res(X[i] @ X[j] - X[j] @ X[i], zero, space, 2) for i, j in combinations(range(4), 2))
        assert worst <= 1e-12

    def test_sum_of_squares_is_identity(self, ops4):
        space = ops4.space
        total = sum(x.matrix @ x.matrix for x in ops4.X)
        assert _res(total, np.eye(space.dim, dtype=complex), space, 2) <= 1e-12

    def test_hermitian_and_adjacent_coupling(self, ops4):
        for rep in ops4.X:
            assert hermiticity_error(rep) <= 1e-12
            assert np.abs(rep.matrix - rep.matrix.conj().T).max() == 0.0
            for src, targets in block_map_reference(rep).items():
                assert set(targets) <= {src - 1, src + 1}

    def test_down_block_matches_direct_cross_gram(self, ops4):
        # independent route: <e_(n-1), x_i e_n> through the degree-(n-1, n+1) Gram
        space = ops4.space
        from sphere_sga.operators import _mult_matrix

        n = 2
        i = 1
        direct = space.basis_matrix(n - 1).T @ space.gram_matrix(n - 1, n + 1) @ (
            _mult_matrix(space, i, n) @ space.basis_matrix(n)
        )
        stored = ops4.X[i - 1].matrix[space.level_slice(n - 1), space.level_slice(n)]
        assert np.abs(direct - stored).max() <= 1e-13


class TestLevelOperator:
    def test_values_per_level(self, ops4):
        h = ops4.h.matrix
        lev = []
        for n in range(ops4.space.n_max + 1):
            lev += [n] * (n + 1) ** 2
        assert np.allclose(np.diag(h).real, np.array(lev) + 1.0)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_h_squared_minus_one_is_H(self, ops4):
        space = ops4.space
        lhs = ops4.h.matrix @ ops4.h.matrix - np.eye(space.dim)
        assert _res(lhs, ops4.H.matrix, space, 0) <= 1e-12


class TestLadder:
    def test_lowering_annihilates_vacuum(self, ops4):
        for a in ops4.a_minus:
            assert np.linalg.norm(a.matrix[:, 0]) == 0.0

    def test_strict_level_shift(self, ops4):
        for a in ops4.a_plus:
            for src, targets in block_map_reference(a).items():
                assert targets == (src + 1,)
        for a in ops4.a_minus:
            for src, targets in block_map_reference(a).items():
                assert targets == (src - 1,)

    def test_adjoint_pair(self, ops4):
        for ap, am in zip(ops4.a_plus, ops4.a_minus):
            assert np.abs(ap.matrix.conj().T - am.matrix).max() <= 1e-14

    def test_commutator_with_level_operator(self, ops4):
        space = ops4.space
        h = ops4.h.matrix
        for a in ops4.a_plus:
            assert _res(h @ a.matrix - a.matrix @ h, a.matrix, space, 1) <= 1e-12
        for a in ops4.a_minus:
            assert _res(h @ a.matrix - a.matrix @ h, -a.matrix, space, 1) <= 1e-12

    def test_number_operator_value_per_level(self, ops4):
        space = ops4.space
        total = sum(p.matrix @ m.matrix for p, m in zip(ops4.a_plus, ops4.a_minus))
        target = np.diag(level_vector(space, lambda n: 2.0 * n * n))
        assert _res(total, target, space, 1) <= 1e-12

    def test_contracted_squares_vanish(self, ops4):
        space = ops4.space
        zero = np.zeros((space.dim, space.dim), dtype=complex)
        plus = sum(a.matrix @ a.matrix for a in ops4.a_plus)
        minus = sum(a.matrix @ a.matrix for a in ops4.a_minus)
        assert _res(plus, zero, space, 2) <= 1e-12
        assert _res(minus, zero, space, 2) <= 1e-12

    def test_single_component_square_does_not_vanish(self, ops4):
        # only the index-contracted square is zero: (A+_1)^2 maps the ground
        # state onto the nonzero harmonic part of x1^2
        space = ops4.space
        sq = ops4.a_plus[0].matrix @ ops4.a_plus[0].matrix
        assert np.linalg.norm(sq[:, : interior_cut(space, 2)]) > 1.0

    def test_ladder_commutator_sign(self, ops4):
        space = ops4.space
        lhs = (
            ops4.a_minus[0].matrix @ ops4.a_plus[1].matrix
            - ops4.a_plus[1].matrix @ ops4.a_minus[0].matrix
        )
        assert _res(lhs, -2j * ops4.J[(1, 2)].matrix, space, 1) <= 1e-12

    def test_boost_definitions(self, ops4):
        space = ops4.space
        sqrt_h = np.diag(level_vector(space, lambda n: math.sqrt(n + 1.0)))
        for i in range(4):
            k_expected = sqrt_h @ ops4.X[i].matrix @ sqrt_h
            assert np.abs(ops4.K[i].matrix - k_expected).max() <= 1e-13
            assert hermiticity_error(ops4.K[i]) <= 1e-12 and hermiticity_error(ops4.L[i]) <= 1e-12


class TestMomentum:
    def test_xp_values(self, ops4):
        space = ops4.space
        eye = np.eye(space.dim, dtype=complex)
        xp = sum(x.matrix @ p.matrix for x, p in zip(ops4.X, ops4.P))
        px = sum(p.matrix @ x.matrix for x, p in zip(ops4.X, ops4.P))
        assert _res(xp + px, 0 * eye, space, 2) <= 1e-12
        assert _res(xp, 1.5j * eye, space, 2) <= 1e-12
        assert _res(px, -1.5j * eye, space, 2) <= 1e-12

    def test_hamiltonian_from_momentum(self, ops4):
        space = ops4.space
        p2 = sum(p.matrix @ p.matrix for p in ops4.P)
        assert _res(ops4.H.matrix, p2 - 2.25 * np.eye(space.dim), space, 2) <= 1e-12

    def test_momentum_position_commutator(self, ops4):
        space = ops4.space
        eye = np.eye(space.dim, dtype=complex)
        worst = 0.0
        for j in range(4):
            for k in range(4):
                lhs = ops4.P[j].matrix @ ops4.X[k].matrix - ops4.X[k].matrix @ ops4.P[j].matrix
                rhs = -1j * ((eye if j == k else 0 * eye) - ops4.X[j].matrix @ ops4.X[k].matrix)
                worst = max(worst, _res(lhs, rhs, space, 2))
        assert worst <= 1e-12

    def test_hermitian(self, ops4):
        assert all(hermiticity_error(p) <= 1e-12 for p in ops4.P)

    def test_angular_momentum_from_x_and_p(self, ops4):
        space = ops4.space
        for i in range(1, 5):
            for j in range(i + 1, 5):
                lhs = ops4.X[i - 1].matrix @ ops4.P[j - 1].matrix - ops4.X[j - 1].matrix @ ops4.P[i - 1].matrix
                assert _res(lhs, ops4.J[(i, j)].matrix, space, 2) <= 1e-12

    def test_momentum_from_boost(self, ops4):
        space = ops4.space
        inv_sqrt = np.diag(level_vector(space, lambda n: (n + 1.0) ** -0.5))
        h = ops4.h.matrix
        for i in range(4):
            rhs = 0.5 * inv_sqrt @ (h @ ops4.L[i].matrix + ops4.L[i].matrix @ h) @ inv_sqrt
            assert _res(ops4.P[i].matrix, rhs, space, 1) <= 1e-12


class TestEigenoperators:
    def test_shift_relations(self, ops4):
        space = ops4.space
        eye = np.eye(space.dim, dtype=complex)
        h = ops4.h.matrix
        for v in ops4.v_plus:
            assert _res((h - eye) @ v.matrix, v.matrix @ h, space, 1) <= 1e-12
        for v in ops4.v_minus:
            assert _res((h + eye) @ v.matrix, v.matrix @ h, space, 1) <= 1e-12

    def test_route_phases(self, ops4):
        # the two ladder constructions agree up to a single global phase per
        # sign: -i for raising, +i for lowering
        space = ops4.space
        inv_sqrt = np.diag(level_vector(space, lambda n: (n + 1.0) ** -0.5))
        sqrt_h = np.diag(level_vector(space, lambda n: (n + 1.0) ** 0.5))
        for i in range(4):
            lhs_p = inv_sqrt @ ops4.v_plus[i].matrix @ sqrt_h
            assert _res(lhs_p, -1j * ops4.a_plus[i].matrix, space, 1) <= 1e-12
            lhs_m = inv_sqrt @ ops4.v_minus[i].matrix @ sqrt_h
            assert _res(lhs_m, 1j * ops4.a_minus[i].matrix, space, 1) <= 1e-12

    def test_adjoint_ratio(self, ops4):
        space = ops4.space
        ratio = np.diag(level_vector(space, lambda n: (n + 2.0) / (n + 1.0)))
        for vp, vm in zip(ops4.v_plus, ops4.v_minus):
            assert _res(vp.matrix.conj().T, ratio @ vm.matrix, space, 0) <= 1e-12


class TestAssembly:
    def test_generator_map_wiring(self, ops4):
        gens = ops4.generators
        from sphere_sga.algebra import gen

        assert gens[gen(5, 6)] is ops4.h
        assert gens[gen(1, 5)] is ops4.K[0]
        assert gens[gen(3, 6)] is ops4.L[2]
        assert gens[gen(1, 2)] is ops4.J[(1, 2)]
        assert len(gens) == 15

    def test_assemble_standalone(self):
        space = orthonormalize(2)
        gens = assemble_so42(space)
        assert len(gens) == 15

    def test_vector_transformation(self, ops4):
        space = ops4.space
        zero = np.zeros((space.dim, space.dim), dtype=complex)
        worst = 0.0
        for i in range(1, 5):
            for k in range(i + 1, 5):
                jm = ops4.J[(i, k)].matrix
                for l in range(1, 5):
                    lhs = jm @ ops4.X[l - 1].matrix - ops4.X[l - 1].matrix @ jm
                    rhs = -1j * (
                        (ops4.X[i - 1].matrix if k == l else zero)
                        - (ops4.X[k - 1].matrix if i == l else zero)
                    )
                    worst = max(worst, _res(lhs, rhs, space, 2))
        assert worst <= 1e-12

    def test_su2_casimirs_per_level(self, ops4):
        space = ops4.space
        J = ops4.J
        r_vec = [J[(2, 3)].matrix, -J[(1, 3)].matrix, J[(1, 2)].matrix]
        s_vec = [J[(1, 4)].matrix, J[(2, 4)].matrix, J[(3, 4)].matrix]
        m2 = sum(((r + s) / 2) @ ((r + s) / 2) for r, s in zip(r_vec, s_vec))
        for n in range(space.n_max + 1):
            sl = space.level_slice(n)
            jval = n / 2
            assert np.abs(m2[sl, sl] - jval * (jval + 1) * np.eye((n + 1) ** 2)).max() <= 1e-12


class TestOperatorRep:
    def test_shape_validation(self, space4):
        with pytest.raises(ValueError):
            OperatorRep.from_matrix(space4, np.zeros((3, 3)))

    def test_each_operator_is_real_or_imaginary(self, ops4):
        imaginary = [*ops4.J.values(), *ops4.L, *ops4.P, *ops4.v_plus, *ops4.v_minus]
        real = [*ops4.X, *ops4.K, *ops4.a_plus, *ops4.a_minus, ops4.h, ops4.H]
        assert [op.phase for op in imaginary] == [1j] * 22
        assert [op.phase for op in real] == [1] * 18
        assert all(op.real.dtype == np.float64 for op in imaginary + real)

    def test_matrix_is_phase_times_real(self, ops4):
        for op in (*ops4.generators.values(), ops4.H, *ops4.P, *ops4.a_plus, *ops4.v_plus, *ops4.v_minus):
            m = op.matrix
            assert m.dtype == complex and not m.flags.writeable
            assert np.array_equal(m, op.phase * op.real)

    def test_sum_of_real_and_imaginary_raises(self, ops4):
        with pytest.raises(ArithmeticError):
            ops4.X[0] + ops4.J[(1, 2)]
        with pytest.raises(ArithmeticError):
            ops4.P[0] - ops4.K[0]
        with pytest.raises(ArithmeticError):
            (1 + 1j) * ops4.X[0]

    def test_arithmetic_matches_dense_complex(self, ops4):
        j, x, h = ops4.J[(1, 2)], ops4.X[0], level_vector(ops4.space, lambda n: n + 1.0)
        zero = OperatorRep.zero(ops4.space)
        cases = [
            (j @ j, j.matrix @ j.matrix), (j @ x, j.matrix @ x.matrix), (x @ j, x.matrix @ j.matrix),
            (-2j * j, -2j * j.matrix), (1j * x, 1j * x.matrix), (0.5 * j - j, -0.5 * j.matrix),
            (h[:, None] * j * h, np.diag(h) @ j.matrix @ np.diag(h)),
            (j.adjoint(), j.matrix.conj().T), (x.adjoint(), x.matrix.T),
            (zero + j, j.matrix), (x - zero, x.matrix), (zero - j, -j.matrix), (sum([j, j]), 2 * j.matrix),
            (zero @ x, np.zeros_like(x.matrix)), (0 * j + x, x.matrix),
        ]
        for op, dense in cases:
            assert np.allclose(op.matrix, dense, rtol=0, atol=1e-13)


def test_builders_standalone_consistency():
    space = orthonormalize(3)
    J = build_J(space)
    H = build_H(space, J)
    h = build_h(space, H)
    X = build_X(space)
    assert len(X) == 4 and len(J) == 6
    assert np.allclose(np.diag(h.matrix)[:5].real, [1, 2, 2, 2, 2])


def test_operator_set_builds_J_once(monkeypatch):
    calls = []
    build = operators.build_J
    monkeypatch.setattr(operators, "build_J", lambda space: calls.append(space) or build(space))
    OperatorSet.build(orthonormalize(2))
    assert len(calls) == 1


class TestLevelVectorBroadcast:
    """Multiplying by a level vector equals the product with its dense diagonal, bit for bit."""

    def test_boost(self, ops4):
        sqrt_h = np.diag(level_vector(ops4.space, lambda n: np.sqrt(n + 1.0)))
        for x, k in zip(ops4.X, ops4.K):
            assert np.array_equal(k.matrix, sqrt_h @ x.matrix @ sqrt_h)

    def test_eigenoperator_pair(self, ops4):
        h = level_vector(ops4.space, lambda n: n + 1.0)
        for x, p, vp, vm in zip(ops4.X, ops4.P, ops4.v_plus, ops4.v_minus):
            assert np.array_equal(vp.matrix, -1j * (np.diag(h + 0.5) @ x.matrix) - p.matrix)
            assert np.array_equal(vm.matrix, -1j * (np.diag(-h + 0.5) @ x.matrix) - p.matrix)

    def test_ladder_match_product(self, ops4):
        inv_sqrt = level_vector(ops4.space, lambda n: (n + 1.0) ** -0.5)
        sqrt_h = level_vector(ops4.space, lambda n: (n + 1.0) ** 0.5)
        for v in (*ops4.v_plus, *ops4.v_minus):
            dense = np.diag(inv_sqrt) @ v.matrix @ np.diag(sqrt_h)
            assert np.array_equal(inv_sqrt[:, None] * v.matrix * sqrt_h, dense)
