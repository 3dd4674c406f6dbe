import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import sphere_sga
from sphere_sga import algebra, hilbert, operators
from sphere_sga.hilbert import (
    Polynomial4,
    harmonic_basis,
    laplacian,
    monomial,
    monomials,
    orthonormalize,
    shift_map,
)
from sphere_sga.operators import (
    OperatorRep,
    OperatorSet,
    build_H,
    build_J,
    build_X,
    build_h,
    level_vector,
)
from sphere_sga.verify import rel_residual

from conftest import column_classes, definite_grade_matrix, dense_residual, grade_matrix, level_cut, shift_matrix


def _res(lhs, rhs, space, k):
    return dense_residual(lhs, rhs, space, space.n_max - k)


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


def structure_faults(op):
    """A dense scan of a nonzero operator: the number of nonzero entries of ``real`` off its grade,
    and whether it is not exactly of its parity (False without one).  A product reads only the
    class blocks of its operands' grades, and a bracket takes b a from the transpose of a b, so
    an entry off the grade or the parity would be lost silently."""
    real = op.real
    outside = int(np.count_nonzero(real[~grade_matrix(op.space, op.grade)]))
    off_parity = op.parity is not None and not np.array_equal(real.T, op.parity * real)
    return outside, off_parity


def hermiticity_error(rep):
    return np.abs(rep.matrix - rep.matrix.conj().T).max()


def unit(i):
    """The exponent vector of x_i, i in 1..4."""
    return np.eye(4, dtype=np.int64)[i - 1]


def mult_matrix_reference(i, degree):
    """Multiplication by x_i, monomials(degree) -> monomials(degree+1), one monomial at a time
    through a {monomial: index} dict: the float map ``build_X`` read before the shift maps."""
    src = monomials(degree)
    dst = monomials(degree + 1)
    index = {m: k for k, m in enumerate(dst)}
    out = np.zeros((len(dst), len(src)))
    for j, expts in enumerate(src):
        t = list(expts)
        t[i - 1] += 1
        out[index[tuple(t)], j] = 1.0
    return out


def rotation_matrix_reference(i, j, degree):
    """x_i d_j - x_j d_i on monomials(degree), built as ``mult_matrix_reference`` is: the float
    map ``build_J`` read before the shift maps."""
    src = monomials(degree)
    index = {m: k for k, m in enumerate(src)}
    out = np.zeros((len(src), len(src)))
    for col, expts in enumerate(src):
        if expts[j - 1] >= 1:
            t = list(expts)
            t[j - 1] -= 1
            t[i - 1] += 1
            out[index[tuple(t)], col] += expts[j - 1]
        if expts[i - 1] >= 1:
            t = list(expts)
            t[i - 1] -= 1
            t[j - 1] += 1
            out[index[tuple(t)], col] -= expts[i - 1]
    return out


def reference_operators(space):
    """The real parts of J_ij and X_i as built before the shift maps, by name, as dense matrices:
    each level block b^T G (map b) through the reference maps and the dense level matrices,
    placed by hand.  J_ij = -i times its entry."""
    out = {}
    for i, j in combinations(range(1, 5), 2):
        m = np.zeros((space.dim, space.dim))
        for n in range(space.n_max + 1):
            b, level = space.basis_matrix(n), space.level_slice(n)
            blk = b.T @ space.gram_matrix(n, n) @ (rotation_matrix_reference(i, j, n) @ b)
            m[level, level] = -(blk - blk.T) / 2.0
        out[f"J{i}{j}"] = m
    for i in range(1, 5):
        m = np.zeros((space.dim, space.dim))
        for n in range(space.n_max):
            up = space.basis_matrix(n + 1).T @ space.gram_matrix(n + 1, n + 1) @ (
                mult_matrix_reference(i, n) @ space.basis_matrix(n)
            )
            m[space.level_slice(n + 1), space.level_slice(n)] = up
            m[space.level_slice(n), space.level_slice(n + 1)] = up.T
        out[f"X{i}"] = m
    return out


def partial_reference(p, i):
    """d p / d x_i on the coefficient dict, exact for integer coefficients."""
    acc = {}
    for expts, c in p:
        if expts[i - 1]:
            t = list(expts)
            t[i - 1] -= 1
            acc[tuple(t)] = acc.get(tuple(t), 0) + c * expts[i - 1]
    return Polynomial4(acc)


def coefficient_columns(polys, degree):
    """The polynomials' coefficients over monomials(degree), one list per polynomial."""
    return [[p.coeffs.get(m, 0) for m in monomials(degree)] for p in polys]


class TestShiftMaps:
    def test_float_maps_equal_the_references_bytes(self):
        for n in range(15):
            for i, j in combinations(range(1, 5), 2):
                e = unit(i) - unit(j)
                rotation = (shift_matrix(n, e, j) - shift_matrix(n, -e, i)).astype(float)
                assert rotation.tobytes() == rotation_matrix_reference(i, j, n).tobytes()
            for i in range(1, 5):
                multiply = shift_matrix(n, unit(i)).astype(float)
                reference = mult_matrix_reference(i, n)
                assert multiply.shape == reference.shape and multiply.tobytes() == reference.tobytes()

    def test_integer_maps_act_exactly_on_the_harmonic_basis(self):
        # x_i d_j - x_j d_i and x_i on the exact basis, against the coefficient dicts; and
        # (2n+2) x_i Y - r^2 d_i Y, with r^2 d_i = sum_k S(n, 2e_k - e_i, i), is harmonic
        for n in range(9):
            b = harmonic_basis(n)
            polys = [Polynomial4(dict(zip(monomials(n), column))) for column in b.T.tolist()]
            for i, j in combinations(range(1, 5), 2):
                e = unit(i) - unit(j)
                got = (shift_matrix(n, e, j) - shift_matrix(n, -e, i)) @ b
                x_i, x_j = monomial(tuple(unit(i))), monomial(tuple(unit(j)))
                expect = [x_i * partial_reference(p, j) - x_j * partial_reference(p, i) for p in polys]
                assert got.T.tolist() == coefficient_columns(expect, n)
            for i in range(1, 5):
                times = shift_matrix(n, unit(i)) @ b
                assert times.T.tolist() == coefficient_columns([monomial(tuple(unit(i))) * p for p in polys], n + 1)
                r2_partial = sum(shift_matrix(n, 2 * unit(k) - unit(i), i) for k in range(1, 5)) @ b
                r2 = sum(monomial(tuple(2 * unit(k))) for k in range(1, 5))
                assert r2_partial.T.tolist() == coefficient_columns([r2 * partial_reference(p, i) for p in polys], n + 1)
                harmonic = (2 * n + 2) * times - r2_partial
                for column in harmonic.T:
                    assert laplacian(Polynomial4(dict(zip(monomials(n + 1), column.tolist())))).is_zero()

    def test_X_agrees_with_the_reference_route_within_roundoff(self):
        # build_X forms b^T G (x_i b) one parity class at a time; the reference multiplies the
        # dense level matrices, over the zeros between classes too.  Measured at most 1.2e-16
        # of max(1, largest entry) at N <= 8
        for n_max in range(4, 8):
            space = orthonormalize(n_max)
            reference = reference_operators(space)
            for i, op in enumerate(build_X(space), 1):
                ref = reference[f"X{i}"]
                assert np.array_equal(op.real, op.real.T)
                assert np.abs(op.real - ref).max() <= 2e-15 * max(1.0, np.abs(ref).max())

    def test_J_X_and_H_bytes_do_not_depend_on_the_blas_thread_count(self):
        # every float product behind them is a small per-class product, which OpenBLAS runs on
        # one thread whatever its thread count
        probe = (
            "import hashlib; from sphere_sga.hilbert import orthonormalize; from sphere_sga import operators as o; "
            "s = orthonormalize(8); J = o.build_J(s); ops = [*J.values(), *o.build_X(s), o.build_H(s, J)]; "
            "print([hashlib.sha256(op.blocks.tobytes()).hexdigest() for op in ops])"
        )
        outputs = []
        for threads in ("1", "2"):
            counts = {name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            env = {**os.environ, **counts, "PYTHONPATH": str(Path(sphere_sga.__file__).parents[1])}
            done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] and outputs[0].count("'") == 2 * 11

    def test_the_reverse_rotation_compresses_to_the_transpose(self):
        # on a harmonic level the sphere product is c_n times the Fischer product, under which
        # x_i and d_i are adjoint, so b^T G (x_j d_i b) = (b^T G (x_i d_j b))^T; the frame's
        # round-off left at most 5.2e-15 of max(1, largest entry) at n = 8
        space = orthonormalize(8)
        for n in range(9):
            b = space.basis_matrix(n)
            dual = b.T @ space.gram_matrix(n, n)
            for i, j in combinations(range(1, 5), 2):
                e = unit(i) - unit(j)
                forward, backward = dual @ shift_map(n, [e, -e], [j, i], b)
                assert np.abs(backward - forward.T).max() <= 1e-14 * max(1.0, np.abs(forward).max())

    def test_J_agrees_with_the_two_map_route_within_roundoff(self):
        # build_J takes a - a^T from one map; the reference projects x_i d_j - x_j d_i and
        # antisymmetrizes.  Measured at most 6.1e-16 of max(1, largest entry) at N <= 8
        for n_max in range(9):
            space = orthonormalize(n_max)
            reference = reference_operators(space)
            for (i, j), op in build_J(space).items():
                ref = reference[f"J{i}{j}"]
                assert np.array_equal(op.real.T, -op.real)
                assert np.abs(op.real - ref).max() <= 2e-15 * max(1.0, np.abs(ref).max())


class TestAngularMomentum:
    def test_annihilates_the_constant(self, ops4):
        v = np.zeros(ops4.space.dim, dtype=complex)
        v[0] = 1.0
        for rep in ops4.J.values():
            assert np.linalg.norm(rep.matrix @ v) <= 1e-14

    def test_rotates_coordinates(self, ops4):
        space = ops4.space
        # x1 and x2 are the first two of monomials(1) = (x1, x2, x3, x4)
        v, v2 = np.zeros((2, space.dim))
        v[space.level_slice(1)], v2[space.level_slice(1)] = (space.basis_matrix(1).T @ space.gram_matrix(1, 1) @ np.eye(4)[:, :2]).T
        w = ops4.J[(1, 2)].matrix @ v
        rotated = space.vector_to_poly(w, 1)
        expected = monomial((0, 1, 0, 0), 1j)  # J_12 x1 = +i x2
        assert (rotated - expected).coeff_norm() <= 1e-12
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
        n = 2
        i = 1
        direct = space.basis_matrix(n - 1).T @ space.gram_matrix(n - 1, n + 1) @ (
            shift_matrix(n, unit(i)) @ space.basis_matrix(n)
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

    @pytest.mark.parametrize("n_max", range(4))
    def test_built_from_the_space_alone(self, n_max):
        space = orthonormalize(n_max)
        levels = [n for n in range(n_max + 1) for _ in range(space.level_dim(n))]
        assert np.array_equal(build_h(space).real, np.diag(np.array(levels) + 1.0))

    def test_h_squared_minus_one_is_H(self, ops4):
        space = ops4.space
        lhs = ops4.h.matrix @ ops4.h.matrix - np.eye(space.dim)
        assert _res(lhs, ops4.H.matrix, space, 0) <= 1e-12


@pytest.mark.parametrize("n_max", [4, 5])
def test_ladder_is_built_exact(n_max):
    """A+-_i are exactly 2 K_i on K's raising, resp. lowering, blocks and A-_i is the
    adjoint of A+_i bit for bit; L_i is exactly antisymmetric and agrees with -i[K_i, h]
    formed as a dense commutator."""
    ops = OperatorSet.build(orthonormalize(n_max))
    level = level_vector(ops.space, lambda n: n)
    up = level[:, None] > level  # target level above source level
    h = ops.h.real
    for k, l, ap, am in zip(ops.K, ops.L, ops.a_plus, ops.a_minus):
        kr = k.real
        assert (ap.phase, am.phase, ap.grade, am.grade) == (1, 1, k.grade, k.grade)
        assert np.array_equal(ap.real, np.where(up, 2.0 * kr, 0.0))
        assert np.array_equal(am.real, np.where(up.T, 2.0 * kr, 0.0))
        assert np.array_equal(am.blocks, ap.adjoint().blocks)
        assert l.phase == 1j and np.array_equal(l.real.T, -l.real)
        assert np.abs(l.real + (kr @ h - h @ kr)).max() <= 4e-15 * np.abs(kr).max()


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
        assert np.linalg.norm(sq[:, : level_cut(space, space.n_max - 2)]) > 1.0

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
        from sphere_sga.algebra import GeneratorIndex as gen

        assert gens[gen(5, 6)] is ops4.h
        assert gens[gen(1, 5)] is ops4.K[0]
        assert gens[gen(3, 6)] is ops4.L[2]
        assert gens[gen(1, 2)] is ops4.J[(1, 2)]
        assert len(gens) == 15

    def test_assemble_standalone(self):
        space = orthonormalize(2)
        gens = OperatorSet.build(space).generators
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

    def test_real_round_trips_through_from_matrix(self, ops4):
        space = ops4.space
        for op in (ops4.H, ops4.J[(1, 2)], ops4.X[0], ops4.P[0]):  # both shifts and both phases
            back = OperatorRep.from_matrix(space, op.matrix)
            assert (back.phase, back.grade) == (op.phase, op.grade)
            assert np.array_equal(back.blocks, op.blocks)
            assert np.array_equal(back.real, op.real)
            for t in range(5):  # the dense gather against the per-level blocks
                for j in range(5):
                    assert np.array_equal(op.real[space.level_slice(t), space.level_slice(j)], op.block(t, j))

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
    h = build_h(space)
    X = build_X(space)
    assert len(X) == 4 and len(J) == 6
    assert np.allclose(np.diag(h.matrix)[:5].real, [1, 2, 2, 2, 2])


@pytest.mark.parametrize("n_max", range(2, 8))
def test_H_and_h_match_their_dense_definitions(n_max):
    # H = (1/2)(acc + acc^T) for acc = J_ij J_ij, and h = diag(level + 1).  acc is formed from the
    # dense J one level block at a time (J keeps the level); H's products run over the zero-padded
    # class blocks, which sum in another order (1.4e-14 apart at N = 6, 7, on entries up to 63).
    # H is exactly symmetric, and h equal value for value
    ops = OperatorSet.build(orthonormalize(n_max))
    space, acc = ops.space, np.zeros((ops.space.dim, ops.space.dim))
    for n in range(n_max + 1):
        level = space.level_slice(n)
        acc[level, level] = sum(-(j.real[level, level] @ j.real[level, level]) for j in ops.J.values())  # J = i real
    reference = 0.5 * (acc + acc.T)
    assert np.array_equal(ops.H.real, ops.H.real.T)
    assert np.abs(ops.H.real - reference).max() <= 1e-15 * max(1.0, np.abs(reference).max())
    assert np.array_equal(ops.h.real, np.diag(level_vector(ops.space, lambda n: n + 1.0)))


@pytest.mark.parametrize("n_max", [0, 1])
def test_structure_at_the_smallest_sizes(n_max):
    # (phase, shift, parity) of each stored family, and the grades; at N=0 no level move stays in
    # the space
    ops = OperatorSet.build(orthonormalize(n_max))
    families = [
        (ops.J.values(), (1j, 0, -1)), (ops.X, (1, 1, 1)), (ops.K, (1, 1, 1)), (ops.L, (1j, 1, -1)),
        (ops.a_plus, (1, 1, None)), (ops.a_minus, (1, 1, None)), ([ops.h], (1, 0, 1)), ([ops.H], (1, 0, 1)),
        (ops.P, (1j, 1, -1)), (ops.v_plus, (1j, 1, None)), (ops.v_minus, (1j, 1, None)),
    ]
    for family, structure in families:
        assert all((op.phase, op.shift, op.parity) == structure for op in family)
    assert [op.grade for op in ops.J.values()] == [12, 10, 9, 6, 5, 3]
    for family in (ops.X, ops.K, ops.L, ops.a_plus, ops.a_minus, ops.P, ops.v_plus, ops.v_minus):
        assert [op.grade for op in family] == [8, 4, 2, 1]
    assert ops.h.grade == ops.H.grade == 0
    if n_max == 0:
        for op in (*ops.X, *ops.K, *ops.L, *ops.a_plus, *ops.a_minus):
            assert not op.blocks.any()


def test_operator_set_builds_J_once(monkeypatch):
    calls = []
    build = operators.build_J
    monkeypatch.setattr(operators, "build_J", lambda space: calls.append(space) or build(space))
    OperatorSet.build(orthonormalize(2))
    assert len(calls) == 1


def test_operator_set_forms_each_level_s_class_duals_once(monkeypatch):
    # build_J reads level n's duals b^T G and build_X level n + 1's: one space forms each once
    formed = []
    form = hilbert._class_duals

    def counting(b, gram, degree):
        formed.append(degree)
        return form(b, gram, degree)

    monkeypatch.setattr(hilbert, "_class_duals", counting)
    OperatorSet.build(orthonormalize(6))
    assert sorted(formed) == list(range(7))


def residual_reference(lhs, rhs, top):
    """``rel_residual`` by its definition: the difference operator formed in full, then three norms."""
    return (lhs - rhs).norm(top) / max(1.0, lhs.norm(top), rhs.norm(top))


@pytest.fixture(scope="module", params=[4, 5])  # a top level of each parity
def ops_4_5(request):
    return OperatorSet.build(orthonormalize(request.param))


@pytest.fixture(scope="module", params=range(1, 9))
def ops_1_8(request):
    return OperatorSet.build(orthonormalize(request.param))


class TestResidualPath:
    """``OperatorRep.norm`` and ``rel_residual`` on the columns of levels <= top, against the
    dense column cut, and the sign guard built on the same norm."""

    @staticmethod
    def _pairs(ops):
        pairs = [(ops.H, ops.h), (ops.J[(1, 2)], 0.5 * ops.J[(1, 2)]), (ops.X[0], ops.K[0]), (ops.P[2], ops.L[2])]
        assert {(a.phase, a.shift) for a, _ in pairs} == {(1, 0), (1j, 0), (1, 1), (1j, 1)}
        assert all(a.grade == b.grade for a, b in pairs)
        return pairs

    def test_norm_equals_the_dense_column_norm(self, ops_4_5):
        space = ops_4_5.space
        ops = [op for pair in self._pairs(ops_4_5) for op in pair] + [OperatorRep.zero(space)]
        for top in range(-1, space.n_max + 2):  # from no column to every column, and past the top
            cut = level_cut(space, top)
            for op in ops:
                dense = float(np.linalg.norm(op.real[:, :cut]))
                assert abs(op.norm(top) - dense) <= 1e-14 * dense

    def test_operator_residual_equals_the_dense_one(self, ops4):
        space, zero = ops4.space, OperatorRep.zero(ops4.space)
        pairs = self._pairs(ops4)
        pairs += [(op, zero) for op, _ in pairs] + [(zero, op) for _, op in pairs] + [(zero, zero)]
        for top in range(-1, space.n_max + 2):
            for lhs, rhs in pairs:
                dense = dense_residual(lhs.matrix, rhs.matrix, space, top)
                assert abs(rel_residual(lhs, rhs, top) - dense) <= 1e-14 * dense

    def test_residual_equals_the_subtraction_reference_bit_for_bit(self, ops_4_5):
        # a_minus holds transposed views, whose memory order the fused norms must keep
        ops, zero = ops_4_5, OperatorRep.zero(ops_4_5.space)
        pairs = self._pairs(ops) + [(ops.X[1], ops.K[1]), (ops.a_minus[0], ops.K[0]), (ops.J[(1, 2)], ops.J[(1, 2)])]
        pairs += [(op, zero) for op, _ in pairs] + [(zero, op) for _, op in pairs] + [(zero, zero)]
        for top in range(-1, ops.space.n_max + 2):
            for lhs, rhs in pairs:
                assert rel_residual(lhs, rhs, top).hex() == residual_reference(lhs, rhs, top).hex()

    def test_sides_of_different_phases_or_grades_raise(self, ops4):
        for top in range(-1, ops4.space.n_max + 2):  # also where no column is compared
            for fn in (rel_residual, residual_reference):
                with pytest.raises(ArithmeticError, match="phases"):
                    fn(ops4.H, ops4.J[(1, 2)], top)
                with pytest.raises(ArithmeticError, match="grades"):
                    fn(ops4.H, ops4.X[0], top)  # level shifts 0 and 1
                with pytest.raises(ArithmeticError, match="grades"):
                    fn(ops4.J[(1, 2)], ops4.J[(3, 4)], top)  # both keep the level
                with pytest.raises(ArithmeticError, match="grades"):
                    fn(ops4.X[0], ops4.K[1], top)

    def test_sign_guard_rejects_the_opposite_J(self, space4, monkeypatch):
        build = operators.build_J
        monkeypatch.setattr(operators, "build_J", lambda space: {key: -j for key, j in build(space).items()})
        with pytest.raises(RuntimeError, match="conventions have drifted"):
            OperatorSet.build(space4)


def test_the_column_indices_the_suite_reads_stay_small_at_n16():
    # no operator is built: the layout alone.  The suite reads the tops 0 (``ladder:annihilates_vacuum``)
    # and n_max - 3 .. n_max - 1; from n_max on the whole stack is read, with no index
    layout = operators._layout(16)
    indices = [layout.columns(top) for top in (0, 13, 14, 15)]
    assert all(index.dtype == np.int32 for index in indices)
    assert sum(index.nbytes for index in indices) <= 4 * 2**20
    assert layout.columns(16) is None and layout.columns(17) is None
    assert max(layout._columns) == 15  # no index is kept from n_max on


class TestLevelVectorBroadcast:
    """Multiplying by a level vector equals the product with its dense diagonal, bit for bit."""

    def test_boost(self, ops4):
        # K's raising blocks are sqrt(h) X sqrt(h) and its lowering blocks their
        # transposes: together the two assertions fix every bit of K
        space = ops4.space
        sqrt_h = level_vector(space, lambda n: np.sqrt(n + 1.0))
        for x, k in zip(ops4.X, ops4.K):
            dense = np.diag(sqrt_h) @ x.real @ np.diag(sqrt_h)
            assert np.array_equal(sqrt_h[:, None] * x.real * sqrt_h, dense)
            for n in range(space.n_max):
                up = (space.level_slice(n + 1), space.level_slice(n))
                assert np.array_equal(k.real[up], dense[up])
            assert np.array_equal(k.real, k.real.T)

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


_BIT = {1: 8, 2: 4, 3: 2, 4: 1, 5: 0, 6: 0}


def _generator_grade(a, b):
    """The grade of M_ab: bit_a ^ bit_b, where x_i flips bit_i (8, 4, 2, 1) and 5, 6 flip none."""
    return _BIT[a] ^ _BIT[b]


def _generator_shift(a, b):
    return int(a >= 5) ^ int(b >= 5)


def _stored(ops):
    return [*ops.J.values(), *ops.X, *ops.P, ops.H, ops.h, *ops.K, *ops.L,
            *ops.a_plus, *ops.a_minus, *ops.v_plus, *ops.v_minus]


def _grade_masks(space):
    """For each grade, True at the dense entries an operator of that grade may hold."""
    classes = column_classes(space)
    return {g: (classes[:, None] ^ classes) == g for g in range(16)}


@pytest.fixture(scope="module", params=[4, 5])
def grade_cases(request):
    """(operator, grade by the rules) for J, X, h, H, K, L, P, A+-, V+-, the identity, a real and an
    imaginary random matrix of one grade, the zero operator, their adjoints and two level-vector
    scalings; and the dense entries of each grade."""
    n = request.param
    ops = OperatorSet.build(orthonormalize(n))
    space = ops.space
    rng = np.random.default_rng(n)
    cases = [
        (ops.J[(1, 2)], 12), (ops.J[(2, 4)], 5), (ops.h, 0), (ops.H, 0), (OperatorRep.identity(space), 0),
        (ops.X[0], 8), (ops.X[3], 1), (ops.K[1], 4), (ops.L[2], 2), (ops.P[0], 8), (ops.a_plus[0], 8),
        (ops.a_minus[1], 4), (ops.v_plus[2], 2), (ops.v_minus[3], 1),
        (OperatorRep.from_matrix(space, definite_grade_matrix(space, rng, 0)), 0),
        (OperatorRep.from_matrix(space, definite_grade_matrix(space, rng, 7, 1j)), 7),
        (OperatorRep.zero(space), None),
    ]
    cases += [(op.adjoint(), grade) for op, grade in cases]
    d, e = level_vector(space, lambda k: k + 1.0), level_vector(space, lambda k: (k + 1.0) ** -0.5)
    cases += [(d[:, None] * ops.K[0] * e, 8), (d[:, None] * ops.J[(1, 3)] * e, 10)]
    return cases, _grade_masks(space)


class TestGrades:
    def test_declared_and_derived_grades(self, grade_cases):
        for op, grade in grade_cases[0]:
            assert op.grade == grade
            assert op.shift == (None if grade is None else bin(grade).count("1") % 2)

    def test_product_matches_dense_and_has_the_xor_grade(self, grade_cases):
        cases, masks = grade_cases
        for a, grade_a in cases:
            for b, grade_b in cases:
                product = a @ b
                dense = a.matrix @ b.matrix
                scale = max(1.0, float(np.abs(dense).max()))
                assert np.abs(product.matrix - dense).max() <= 1e-13 * scale
                if grade_a is None or grade_b is None:
                    assert product.phase is None and product.grade is None
                    continue
                # the selection rule, on the dense product: every entry off the xor grade is 0
                assert product.grade == grade_a ^ grade_b
                assert not dense[~masks[grade_a ^ grade_b]].any()

    def test_sum_of_one_grade_matches_dense_and_others_raise(self, grade_cases):
        cases, _ = grade_cases
        for a, grade_a in cases:
            for b, grade_b in cases:
                if a.phase is not None and b.phase is not None and a.phase != b.phase:
                    continue
                if a.phase is not None and b.phase is not None and grade_a != grade_b:
                    with pytest.raises(ArithmeticError, match="grades"):
                        a + b
                    continue
                total = a + b
                assert total.grade == (grade_a if grade_a is not None else grade_b)
                assert np.array_equal(total.matrix, a.matrix + b.matrix)

    def test_scalars_and_negation_keep_the_grade(self, ops4):
        for op in (ops4.J[(1, 2)], ops4.X[0], ops4.P[1]):
            assert (-op).grade == (2.5 * op).grade == (1j * op).grade == (-1j * op).grade == op.grade
        assert (0 * ops4.X[0]).grade is None

    def test_stored_operators_keep_their_levels_and_zero_padding(self, ops_1_8):
        # the level moves found by a dense scan, the stack against the one from_matrix places
        # from the dense matrix, padding zeros included, and each level block against ``real``
        ops = ops_1_8
        levels = [ops.space.level_slice(n) for n in range(ops.space.n_max + 1)]
        moves = [(ops.J.values(), {0}), ([ops.h, ops.H], {0}), ([*ops.X, *ops.K, *ops.L, *ops.P], {-1, 1}),
                 ([*ops.v_plus, *ops.v_minus], {-1, 1}), (ops.a_plus, {1}), (ops.a_minus, {-1})]
        for family, allowed in moves:
            for op in family:
                assert structure_faults(op) == (0, False)
                for src, targets in block_map_reference(op).items():
                    assert {t - src for t in targets} <= allowed
                assert np.array_equal(OperatorRep.from_matrix(op.space, op.matrix).blocks, op.blocks)
                real = op.real
                for t, rows in enumerate(levels):
                    for j, cols in enumerate(levels):
                        assert np.array_equal(op.block(t, j), real[rows, cols])

    def test_from_matrix_keeps_a_far_block(self, ops4):
        # X_1 and one level 0 -> 3 block of its grade with its transpose: nothing limits a
        # product to adjacent levels, so products read both
        space, x = ops4.space, ops4.X[0]
        rows = column_classes(space)[space.level_slice(3)] == x.grade  # level 0 is class 0
        far = np.where(rows, np.arange(1.0, space.level_dim(3) + 1.0), 0.0)[:, None]
        dense = x.real.copy()
        dense[space.level_slice(3), space.level_slice(0)] = far
        dense[space.level_slice(0), space.level_slice(3)] = far.T
        op = OperatorRep.from_matrix(space, dense)
        assert op.grade == x.grade and structure_faults(op) == (0, False)
        assert np.array_equal((op @ ops4.h).block(3, 0), far)  # h is 1 on level 0
        assert np.array_equal((ops4.h @ op).block(0, 3), far.T)
        for other in (ops4.X[1], ops4.J[(1, 2)], ops4.K[2]):
            for result, dense in ((op @ other, op.matrix @ other.matrix), (other @ op, other.matrix @ op.matrix),
                                  (op.commutator(other), op.matrix @ other.matrix - other.matrix @ op.matrix)):
                assert np.abs(result.matrix - dense).max() <= 1e-13 * max(1.0, float(np.abs(dense).max()))


def _hermitian_parity(op):
    """The transpose parity of a Hermitian operator's real part: +1 if it is real, -1 if imaginary."""
    return 1 if op.phase == 1 else -1


@pytest.fixture(scope="module", params=[4, 5])
def bracket_cases(request):
    """(operator, parity by the rules) for J, X, h, H, K, L, P, A+-, V+-, the identity, one T~ and
    one R component, a random matrix of one grade, the zero operator and their adjoints."""
    n = request.param
    ops = OperatorSet.build(orthonormalize(n))
    space = ops.space
    rng = np.random.default_rng(n)
    t, r = algebra.tensor_T(ops.generators), algebra.tensor_R(ops.generators)
    cases = [
        (ops.J[(1, 2)], -1), (ops.J[(2, 4)], -1), (ops.X[0], 1), (ops.X[3], 1), (ops.h, 1), (ops.H, 1),
        (ops.K[1], 1), (ops.L[2], -1), (ops.P[0], -1), (ops.a_plus[0], None), (ops.a_minus[1], None),
        (ops.v_plus[2], None), (ops.v_minus[3], None), (OperatorRep.identity(space), 1),
        (t[(1, 1)], 1), (r[(1, 2)], -1),
        (OperatorRep.from_matrix(space, definite_grade_matrix(space, rng, 8)), None),
        (OperatorRep.zero(space), None),
    ]
    cases += [(op.adjoint(), parity) for op, parity in cases]
    return n, cases


class TestHermitianBrackets:
    def test_declared_and_derived_parities(self, bracket_cases):
        for op, parity in bracket_cases[1]:
            assert op.parity == parity
            if parity is not None:
                assert np.array_equal(op.real.T, parity * op.real)

    @pytest.mark.parametrize("sign", [-1, 1], ids=["commutator", "anticommutator"])
    def test_bracket_matches_two_products(self, bracket_cases, sign):
        n, cases = bracket_cases
        for a, pa in cases:
            for b, pb in cases:
                bracket = a.commutator(b) if sign < 0 else a.anticommutator(b)
                dense = a.matrix @ b.matrix + sign * (b.matrix @ a.matrix)
                # relative to the round-off bound of each product, |a| |b| entrywise,
                # as the near-vanishing T~ and R cancel within a product
                abs_a, abs_b = np.abs(a.matrix), np.abs(b.matrix)
                scale = max(1.0, float((abs_a @ abs_b).max()), float((abs_b @ abs_a).max()))
                assert np.abs(bracket.matrix - dense).max() <= 1e-13 * scale
                if a.phase is None or b.phase is None:
                    assert bracket.phase is None
                    continue
                assert bracket.grade == a.grade ^ b.grade
                if pa is None or pb is None:
                    assert bracket.parity is None
                else:
                    assert bracket.parity == sign * pa * pb
                    assert np.array_equal(bracket.real.T, bracket.parity * bracket.real)

    def test_one_product_only_with_both_parities(self, bracket_cases, monkeypatch):
        # one product per bracket when both operands have a parity, two otherwise
        products = []
        matmul = OperatorRep.__matmul__

        def counting(a, b):
            products.append((a, b))
            return matmul(a, b)

        monkeypatch.setattr(OperatorRep, "__matmul__", counting)
        for a, pa in bracket_cases[1]:
            for b, pb in bracket_cases[1]:
                products.clear()
                a.commutator(b)
                b.anticommutator(a)
                assert len(products) == (4 if pa is None or pb is None else 2)

    def test_stored_operators_and_tensors_are_exactly_hermitian(self, ops_1_8):
        ops = ops_1_8
        tagged = [*ops.J.values(), *ops.X, *ops.P, ops.H, ops.h, *ops.K, *ops.L]
        t, r = algebra.tensor_T(ops.generators), algebra.tensor_R(ops.generators)
        components = [t[(a, b)] for a in range(1, 7) for b in range(a, 7)]
        components += [r[(a, b)] for a, b in combinations(range(1, 7), 2)]
        for op in tagged + components:
            assert op.parity == _hermitian_parity(op)
            assert np.array_equal(op.real.T, op.parity * op.real)
        for op in (*ops.a_plus, *ops.a_minus, *ops.v_plus, *ops.v_minus):
            assert op.parity is None

    def test_sums_scalars_and_products_propagate_the_parity(self, ops4):
        j, x, k = ops4.J[(1, 2)], ops4.X[0], ops4.K[0]
        d = level_vector(ops4.space, lambda n: n + 1.0)
        assert (x + k).parity == (2.5 * x).parity == (-x).parity == (1j * x).parity == x.adjoint().parity == 1
        assert (j - 2.0 * j).parity == (-2j * j).parity == -1
        assert (x + 1j * ops4.L[0]).parity is None
        assert (x @ k).parity is None and (d[:, None] * x).parity is None and (x * d).parity is None

    def test_with_transpose_writes_the_transpose_of_a_perturbed_entry(self, ops4):
        # X_1's raising entries with the largest of the level 0 -> 1 block moved by one ulp:
        # the level 1 -> 0 block is written from the moved entry, so the operator is exactly
        # of its parity
        space, x = ops4.space, ops4.X[0]
        up = np.zeros((space.dim, space.dim))
        for n in range(space.n_max):
            up[space.level_slice(n + 1), space.level_slice(n)] = x.block(n + 1, n)
        row = space.offsets[1] + int(np.argmax(np.abs(up[space.level_slice(1), 0])))
        up[row, 0] = np.nextafter(up[row, 0], np.inf)
        for phase, parity in ((1, 1), (1j, -1)):
            op = OperatorRep.from_matrix(space, phase * up)._with_transpose(parity)
            assert (op.phase, op.grade, op.parity) == (phase, x.grade, parity)
            assert np.array_equal(op.real.T, parity * op.real)
            assert np.array_equal(op.block(1, 0), up[space.level_slice(1), space.level_slice(0)])
            assert np.array_equal(op.block(0, 1), parity * up[space.level_slice(1), space.level_slice(0)].T)
            assert structure_faults(op) == (0, False)


@pytest.fixture(scope="module", params=[4, 5])
def graded_cases(request):
    """(operator, its dense phase * real) for the 40 stored operators, T~_11, R_12, a random matrix
    of grade 13, the zero operator and the adjoints of those without a transpose parity (the adjoint
    of an operator with one is +-itself, value for value); and the dense entries of each grade."""
    n = request.param
    ops = OperatorSet.build(orthonormalize(n))
    space = ops.space
    t, r = algebra.tensor_T(ops.generators), algebra.tensor_R(ops.generators)
    rng = np.random.default_rng(n + 10)
    cases = [*_stored(ops), t[(1, 1)], r[(1, 2)],
             OperatorRep.from_matrix(space, definite_grade_matrix(space, rng, 13)), OperatorRep.zero(space)]
    cases += [op.adjoint() for op in cases if op.parity is None]
    return space, [(op, (op.phase or 0) * op.real) for op in cases], _grade_masks(space)


class TestGradedStack:
    """Arithmetic on the class stacks against dense references."""

    def test_products_and_brackets_match_dense(self, graded_cases):
        # dense real products of one left operand with every right operand at once
        space, cases, _ = graded_cases
        ops = [op for op, _ in cases]
        reals = np.array([op.real for op in ops])
        abs_reals = np.abs(reals)
        for a, ra, abs_ra in zip(ops, reals, abs_reals):
            # relative to the round-off bound of each product, |a| |b| entrywise
            scales = np.maximum((abs_ra @ abs_reals).max(axis=(1, 2)), (abs_reals @ abs_ra).max(axis=(1, 2)))
            for b, ab, ba, scale in zip(ops, ra @ reals, reals @ ra, scales):
                for result, dense in ((a @ b, ab), (a.commutator(b), ab - ba), (a.anticommutator(b), ab + ba)):
                    if a.phase is None or b.phase is None:
                        assert result.phase is None and result.grade is None
                        continue
                    assert result.grade == a.grade ^ b.grade
                    sign = (a.phase * b.phase / result.phase).real  # i i = -1 is carried as a sign
                    assert np.abs(result.real - sign * dense).max() <= 1e-13 * max(1.0, scale)

    def test_sums_scalars_and_level_vectors_match_dense(self, graded_cases):
        space, cases, masks = graded_cases
        d, e = level_vector(space, lambda k: k + 1.0), level_vector(space, lambda k: (k + 1.0) ** -0.5)
        for a, da in cases:
            for result, dense in ((-a, -da), (2.5 * a, 2.5 * da), (1j * a, 1j * da), (a * -3j, -3j * da),
                                  (d[:, None] * a * e, d[:, None] * da * e)):
                assert result.grade == a.grade
                assert np.array_equal((result.phase or 0) * result.real, dense)
            for b, db in cases:
                if a.phase is not None and b.phase is not None and a.phase != b.phase:
                    continue
                if a.phase is not None and b.phase is not None and a.grade != b.grade:
                    with pytest.raises(ArithmeticError, match="grades"):
                        a + b
                    with pytest.raises(ArithmeticError, match="grades"):
                        a - b
                    continue
                for result, dense in ((a + b, da + db), (a - b, da - db)):
                    assert result.grade == (a.grade if a.phase is not None else b.grade)
                    assert np.array_equal((result.phase or 0) * result.real, dense)
                    if result.phase is not None:
                        assert not dense[~masks[result.grade]].any()

    def test_adjoint_with_a_parity_is_plus_or_minus_itself(self, graded_cases):
        for op, _ in graded_cases[1]:
            if op.parity is not None:
                adjoint = op.adjoint()
                assert (adjoint.parity, adjoint.grade) == (op.parity, op.grade)
                assert np.array_equal(adjoint.real, (1 if op.phase == 1 else -1) * op.parity * op.real)

    def test_real_is_zero_off_the_grade(self, graded_cases):
        space, cases, masks = graded_cases
        for op, dense in cases:
            if op.phase is not None:
                assert not op.real[~masks[op.grade]].any()
                assert op.real[masks[op.grade]].any()
                assert not op.real.flags.writeable

    def test_from_matrix_takes_the_grade_and_refuses_mixed_ones(self, space4):
        rng = np.random.default_rng(3)
        for grade in range(16):
            m = definite_grade_matrix(space4, rng, grade)
            op = OperatorRep.from_matrix(space4, m)
            assert (op.grade, op.shift) == (grade, bin(grade).count("1") % 2) and np.array_equal(op.real, m)
        assert OperatorRep.from_matrix(space4, np.zeros((space4.dim, space4.dim))).grade == 0
        mixed = definite_grade_matrix(space4, rng, 0)
        level1 = column_classes(space4)[space4.level_slice(1)]
        mixed[1 + int(np.flatnonzero(level1 == 8)[0]), 0] = 1.0  # one entry of grade 8 in a grade-0 matrix
        with pytest.raises(ValueError, match="grade"):
            OperatorRep.from_matrix(space4, mixed)

    def test_stored_operators_and_tensor_components_have_their_grades(self, ops4):
        assert [op.shift for op in (*ops4.J.values(), ops4.H, ops4.h)] == [0] * 8
        odd = [*ops4.X, *ops4.P, *ops4.K, *ops4.L, *ops4.a_plus, *ops4.a_minus, *ops4.v_plus, *ops4.v_minus]
        assert [op.shift for op in odd] == [1] * 32
        for g, m in ops4.generators.items():
            assert (m.grade, m.shift) == (_generator_grade(g.a, g.b), _generator_shift(g.a, g.b))
        t, r = algebra.tensor_T(ops4.generators), algebra.tensor_R(ops4.generators)
        for a in range(1, 7):
            for b in range(a, 7):
                assert (t[(a, b)].grade, t[(a, b)].shift) == (_generator_grade(a, b), _generator_shift(a, b))
                if a < b:  # {M_cd, M_ef} over the four other indices
                    assert (r[(a, b)].grade, r[(a, b)].shift) == (15 ^ _generator_grade(a, b), _generator_shift(a, b))


class TestTops:
    """Every operator holds every column; a top (``norm``, ``distance``) reads the columns of
    levels <= top, a column prefix of every class."""

    def test_products_and_brackets_equal_the_full_ones(self, bracket_cases):
        # at every top, from no column to past n_max: a product's and a bracket's norm equal the
        # dense one's on those columns, and each bracket is within round-off of its two products
        n, cases = bracket_cases
        space = cases[0][0].space
        cuts = [(top, level_cut(space, top)) for top in range(-1, n + 2)]
        for a, _ in cases:
            for b, _ in cases:
                ab, ba = a.matrix @ b.matrix, b.matrix @ a.matrix
                abs_a, abs_b = np.abs(a.matrix), np.abs(b.matrix)
                bound = 1e-13 * max(1.0, float(np.linalg.norm(abs_a @ abs_b) + np.linalg.norm(abs_b @ abs_a)))
                pairs = ((a @ b, ab, None), (a.commutator(b), ab - ba, a @ b - b @ a),
                         (a.anticommutator(b), ab + ba, a @ b + b @ a))
                for op, dense, products in pairs:
                    for top, cut in cuts:
                        assert abs(op.norm(top) - float(np.linalg.norm(dense[:, :cut]))) <= bound
                        assert products is None or op.distance(products, top) <= bound


def test_each_stored_buffer_holds_one_class_stack():
    # 16 classes, S the largest class over levels 0..7 (20 columns): each distinct buffer behind
    # an N=7 operator set is one (16, S, S) float64 stack; A-_i = (A+_i)^dagger is a permuted copy
    ops = OperatorSet.build(orthonormalize(7))
    size = int(np.bincount(column_classes(ops.space)).max())
    assert size == 20
    buffers = {}
    for op in (*_stored(ops), *ops.generators.values()):
        base = op.blocks
        while isinstance(base.base, np.ndarray):
            base = base.base
        buffers[id(base)] = base.nbytes
    assert len(buffers) == 40 and set(buffers.values()) == {16 * size * size * 8}


@pytest.mark.parametrize("n_max", range(2, 8))
def test_graded_arithmetic_matches_dense(n_max):
    """Every operation on the class stacks against the same operation on dense complex matrices,
    within round-off: products, sums, scalars, level vectors, adjoints, both bracket paths (one
    product for two transpose parities, two otherwise), norm(top), distance, block and real.
    Every stack the builders and these operations form is exactly zero outside its real slots,
    which the column index behind ``norm`` relies on when it reads padding rows.  ``norm``,
    ``distance`` and ``rel_residual`` of operators of all 16 grades, a transposed view among
    them, agree with the dense columns of levels <= top at every top from -1 to n_max + 1."""
    ops = OperatorSet.build(orthonormalize(n_max))
    space = ops.space
    rng = np.random.default_rng(n_max)
    counts = np.bincount(column_classes(space), minlength=16)  # class c's columns take its first slots
    slots = np.arange(ops.h.blocks.shape[1])

    def padded(op):
        # blocks[c] maps class c into c ^ grade: rows of class c ^ grade, columns of class c
        rows = slots[None, :, None] < counts[np.arange(16) ^ op.grade][:, None, None]
        return op.phase is None or not op.blocks[~(rows & (slots[None, None, :] < counts[:, None, None]))].any()

    assert all(padded(op) for op in (*_stored(ops), *ops.generators.values(), OperatorRep.identity(space)))
    # X_2 and K_2, and P_1 and V+_1, share a phase and a grade, so they also add
    operands = [ops.J[(1, 3)], ops.X[1], ops.K[1], ops.L[3], ops.P[0], ops.H, ops.a_plus[1], ops.a_minus[2],
                ops.v_plus[0], OperatorRep.from_matrix(space, definite_grade_matrix(space, rng, 5)),
                OperatorRep.from_matrix(space, definite_grade_matrix(space, rng, 9, 1j))]
    dense = [op.matrix for op in operands]
    d = level_vector(space, lambda n: n + 1.0)

    def close(op, m):
        return np.abs(op.matrix - m).max() <= 1e-13 * max(1.0, float(np.abs(m).max()))

    for a, ma in zip(operands, dense):
        assert np.array_equal(a.real, ma.real if a.phase == 1 else ma.imag)
        assert close(a.adjoint(), ma.conj().T) and close(-2.5j * a, -2.5j * ma)
        assert close(d[:, None] * a * d, np.diag(d) @ ma @ np.diag(d))
        formed = [a.adjoint(), -2.5j * a, 1j * a, -1j * a, -a, d[:, None] * a * d, a * d,
                  a._with_transpose(1), a._with_transpose(-1)]
        assert all(padded(op) for op in formed)
        for t in range(n_max + 1):
            for j in range(n_max + 1):
                assert np.array_equal(a.block(t, j), a.real[space.level_slice(t), space.level_slice(j)])
        for top in range(-1, n_max + 1):
            cut = level_cut(space, top)
            assert abs(a.norm(top) - np.linalg.norm(ma[:, :cut])) <= 1e-14 * max(1.0, np.linalg.norm(ma))
        for b, mb in zip(operands, dense):
            assert close(a @ b, ma @ mb)
            assert close(a.commutator(b), ma @ mb - mb @ ma) and close(a.anticommutator(b), ma @ mb + mb @ ma)
            assert padded(a @ b) and padded(a.commutator(b)) and padded(a.anticommutator(b))
            if (a.phase, a.grade) == (b.phase, b.grade):
                assert close(a + b, ma + mb) and close(a - b, ma - mb)
                assert padded(a + b) and padded(a - b)
                for top in range(n_max + 1):
                    cut = level_cut(space, top)
                    reference = np.linalg.norm(ma[:, :cut] - mb[:, :cut])
                    assert abs(a.distance(b, top) - reference) <= 1e-14 * max(1.0, np.linalg.norm(ma), np.linalg.norm(mb))

    # a pair of each grade and phase, with a transposed view, a zero side and equal sides
    zero = OperatorRep.zero(space)
    for grade in range(16):
        phase = 1j if grade % 2 else 1
        a, b = (OperatorRep.from_matrix(space, definite_grade_matrix(space, rng, grade, phase)) for _ in range(2))
        for lhs, rhs in ((a, b), (a.adjoint(), b), (a, zero), (zero, b), (a, a)):
            for top in range(-1, n_max + 2):
                cut = level_cut(space, top)
                left, right = (op.real[:, :cut] if op.phase else np.zeros((space.dim, cut)) for op in (lhs, rhs))
                gap, norm_l, norm_r = (float(np.linalg.norm(m)) for m in (left - right, left, right))
                bound = 1e-14 * max(1.0, norm_l, norm_r)
                assert abs(lhs.norm(top) - norm_l) <= bound and abs(rhs.norm(top) - norm_r) <= bound
                assert abs(lhs.distance(rhs, top) - gap) <= bound
                assert abs(rel_residual(lhs, rhs, top) - gap / max(1.0, norm_l, norm_r)) <= 1e-14
