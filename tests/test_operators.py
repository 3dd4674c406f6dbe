import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import sphere_sga
from sphere_sga import algebra, operators
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

from conftest import dense_residual, level_cut, shift_matrix


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
    """A scan of the halves of a nonzero operator that holds every column: the number of nonzero
    entries outside its band, and whether it is not exactly of its parity (False without one).
    A product reads only the blocks inside its operands' bands, and a bracket takes b a from the
    transpose of a b, so an entry outside the band or off the parity would be lost silently."""
    index, level = operators._layout(op.space.n_max).index, level_vector(op.space, lambda n: n)
    outside = 0
    for p, part in enumerate(op.parts):
        step = level[index[p ^ op.shift]][:, None] - level[index[p]]  # target level minus source level
        outside += int(np.count_nonzero(part[(step < op.band[0]) | (step > op.band[1])]))
    off_parity = op.parity is not None and not all(
        np.array_equal(op.parts[p ^ op.shift].T, op.parity * op.parts[p]) for p in (0, 1)
    )
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


def zero_halves(layout, shift):
    """The two zero halves of an operator of the given shift, each placed block by block below."""
    return tuple(np.zeros((layout.dims[p ^ shift], layout.dims[p])) for p in (0, 1))


def reference_operators(space):
    """J_ij and X_i as built before the shift maps, by name: one operator at a time, each block
    b^T G (map b) through the reference maps, placed by hand in its halves."""
    layout = operators._layout(space.n_max)
    s = layout.slices
    out = {}
    for i, j in combinations(range(1, 5), 2):
        parts = zero_halves(layout, 0)
        for n in range(space.n_max + 1):
            b = space.basis_matrix(n)
            blk = b.T @ space.gram_matrix(n, n) @ (rotation_matrix_reference(i, j, n) @ b)
            parts[n % 2][s[n], s[n]] = (blk - blk.T) / 2.0
        out[f"J{i}{j}"] = -1j * OperatorRep(space, parts, 0, band=(0, 0), parity=-1)
    for i in range(1, 5):
        parts = zero_halves(layout, 1)
        for n in range(space.n_max):
            up = space.basis_matrix(n + 1).T @ space.gram_matrix(n + 1, n + 1) @ (
                mult_matrix_reference(i, n) @ space.basis_matrix(n)
            )
            parts[n % 2][s[n + 1], s[n]] = up
            parts[1 - n % 2][s[n], s[n + 1]] = up.T
        out[f"X{i}"] = OperatorRep(space, parts, 1, band=(-1, 1), parity=1)
    return out


def reference_mismatches(levels):
    """The X halves, over the given sizes N, whose bytes differ from the reference route's."""
    bad = []
    for n_max in levels:
        space = orthonormalize(n_max)
        built = {f"X{i}": op for i, op in enumerate(build_X(space), 1)}
        reference = reference_operators(space)
        for name, op in built.items():
            for p, (a, b) in enumerate(zip(op.parts, reference[name].parts)):
                if a.shape != b.shape or a.tobytes() != b.tobytes():
                    bad.append(f"N={n_max} {name} half {p}")
    return bad


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

    def test_X_halves_equal_the_reference_route_bytes_on_one_blas_thread(self):
        threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        path = os.pathsep.join([str(Path(sphere_sga.__file__).parents[1]), str(Path(__file__).parent)])
        probe = "import test_operators as t; print(t.reference_mismatches(range(4, 8)))"
        env = {**os.environ, **threads, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

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
                forward, backward = dual @ shift_map(n, e, j, b), dual @ shift_map(n, -e, i, b)
                assert np.abs(backward - forward.T).max() <= 1e-14 * max(1.0, np.abs(forward).max())

    def test_J_agrees_with_the_two_map_route_within_roundoff(self):
        # build_J takes a - a^T from one map; the reference projects x_i d_j - x_j d_i and
        # antisymmetrizes.  Measured at most 6.1e-16 of max(1, largest entry) at N <= 8
        for n_max in range(9):
            space = orthonormalize(n_max)
            reference = reference_operators(space)
            for (i, j), op in build_J(space).items():
                ref = reference[f"J{i}{j}"]
                scale = max(1.0, *(np.abs(p).max() for p in ref.parts if p.size))
                assert np.array_equal(op.real.T, -op.real)
                for a, b in zip(op.parts, ref.parts):
                    assert a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= 2e-15 * scale


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
        assert (ap.phase, am.phase, ap.band, am.band) == (1, 1, (1, 1), (-1, -1))
        assert np.array_equal(ap.real, np.where(up, 2.0 * kr, 0.0))
        assert np.array_equal(am.real, np.where(up.T, 2.0 * kr, 0.0))
        assert all(np.array_equal(x, y) for x, y in zip(am.parts, ap.adjoint().parts))
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
            assert (back.phase, back.shift, back.band) == (op.phase, op.shift, (-4, 4))
            assert all(np.array_equal(a, b) for a, b in zip(back.parts, op.parts))
            assert np.array_equal(back.real, op.real)
            for t in range(5):  # the dense placement against the per-level blocks of the halves
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
def test_H_and_h_equal_their_dense_definitions(n_max):
    # H = (1/2)(acc + acc^T) for acc = J_ij J_ij, and h = diag(level + 1), value for value.  acc
    # is formed from the dense J one level block at a time: J keeps the level, and one product
    # of the whole dim x dim matrices sums in another order (7e-15 apart at N = 5..7)
    ops = OperatorSet.build(orthonormalize(n_max))
    space, acc = ops.space, np.zeros((ops.space.dim, ops.space.dim))
    for n in range(n_max + 1):
        level = space.level_slice(n)
        acc[level, level] = sum(-(j.real[level, level] @ j.real[level, level]) for j in ops.J.values())  # J = i real
    assert np.array_equal(ops.H.real, 0.5 * (acc + acc.T))
    assert np.array_equal(ops.h.real, np.diag(level_vector(ops.space, lambda n: n + 1.0)))


@pytest.mark.parametrize("n_max", [0, 1])
def test_structure_at_the_smallest_sizes(n_max):
    # (phase, shift, band, parity) of each stored family; at N=0 no level move stays in the space
    ops = OperatorSet.build(orthonormalize(n_max))
    families = [
        (ops.J.values(), (1j, 0, (0, 0), -1)), (ops.X, (1, 1, (-1, 1), 1)), (ops.K, (1, 1, (-1, 1), 1)),
        (ops.L, (1j, 1, (-1, 1), -1)), (ops.a_plus, (1, 1, (1, 1), None)), (ops.a_minus, (1, 1, (-1, -1), None)),
        ([ops.h], (1, 0, (0, 0), 1)), ([ops.H], (1, 0, (0, 0), 1)), (ops.P, (1j, 1, (-n_max, n_max), -1)),
        (ops.v_plus, (1j, 1, (-1, 1), None)), (ops.v_minus, (1j, 1, (-1, 1), None)),
    ]
    for family, structure in families:
        assert all((op.phase, op.shift, op.band, op.parity) == structure for op in family)
    if n_max == 0:
        for op in (*ops.X, *ops.K, *ops.L, *ops.a_plus, *ops.a_minus):
            assert not any(part.any() for part in op.parts)


def test_operator_set_builds_J_once(monkeypatch):
    calls = []
    build = operators.build_J
    monkeypatch.setattr(operators, "build_J", lambda space: calls.append(space) or build(space))
    OperatorSet.build(orthonormalize(2))
    assert len(calls) == 1


def norm_reference(op, top):
    """``OperatorRep.norm`` as ``np.linalg.norm`` of each half's columns of levels <= top."""
    if op.phase is None or top < 0:
        return 0.0
    levels = range(min(top, op.space.n_max) + 1)
    cols = [sum((n + 1) ** 2 for n in levels if n % 2 == p) for p in (0, 1)]
    return math.hypot(*(np.linalg.norm(x[:, :c]) for x, c in zip(op.parts, cols)))


def residual_reference(lhs, rhs, top):
    """``rel_residual`` by its definition: the difference operator formed in full, then three norms."""
    return norm_reference(lhs - rhs, top) / max(1.0, norm_reference(lhs, top), norm_reference(rhs, top))


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
        pairs = [(ops.H, ops.h), (ops.J[(1, 2)], ops.J[(3, 4)]), (ops.X[0], ops.K[1]), (ops.P[0], ops.L[2])]
        assert {(a.phase, a.shift) for a, _ in pairs} == {(1, 0), (1j, 0), (1, 1), (1j, 1)}
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
        pairs = self._pairs(ops) + [(ops.X[0], ops.X[1]), (ops.a_minus[0], ops.K[0]), (ops.J[(1, 2)], ops.J[(1, 2)])]
        pairs += [(op, zero) for op, _ in pairs] + [(zero, op) for _, op in pairs] + [(zero, zero)]
        for top in range(-1, ops.space.n_max + 2):
            for lhs, rhs in pairs:
                assert rel_residual(lhs, rhs, top).hex() == residual_reference(lhs, rhs, top).hex()

    def test_sides_of_different_phases_or_shifts_raise(self, ops4):
        for top in range(-1, ops4.space.n_max + 2):  # also where no column is compared
            for fn in (rel_residual, residual_reference):
                with pytest.raises(ArithmeticError, match="phases"):
                    fn(ops4.H, ops4.J[(1, 2)], top)
                with pytest.raises(ArithmeticError, match="level shifts"):
                    fn(ops4.H, ops4.X[0], top)

    def test_sign_guard_rejects_the_opposite_J(self, space4, monkeypatch):
        build = operators.build_J
        monkeypatch.setattr(operators, "build_J", lambda space: {key: -j for key, j in build(space).items()})
        with pytest.raises(RuntimeError, match="conventions have drifted"):
            OperatorSet.build(space4)


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


def definite_shift_matrix(space, rng, shift, phase=1):
    """A random dense matrix whose level blocks (t, j) are nonzero only where t - j has the parity of ``shift``."""
    level = level_vector(space, lambda n: n)
    step = level[:, None] - level
    return phase * np.where(step % 2 == shift, rng.standard_normal((space.dim, space.dim)), 0.0)


def _outside_band_blocks(op, band):
    """Largest |entry| of each level block (target t, source j) with t - j outside ``band``, scanned densely."""
    m, space = op.matrix, op.space
    top = space.n_max
    return [
        float(np.abs(m[space.level_slice(t), space.level_slice(j)]).max())
        for t in range(top + 1) for j in range(top + 1)
        if band is None or not band[0] <= t - j <= band[1]
    ]


@pytest.fixture(scope="module", params=[4, 5])
def band_cases(request):
    """(operator, band by the rules) for J, X, h, H, K, L, P, A+-, V+-, the identity,
    a real even-shift and an imaginary odd-shift full-band matrix, the zero operator, their adjoints
    and two level-vector scalings."""
    n = request.param
    ops = OperatorSet.build(orthonormalize(n))
    space, full = ops.space, (-n, n)
    rng = np.random.default_rng(n)
    shift = (-1, 1)
    cases = [
        (ops.J[(1, 2)], (0, 0)), (ops.J[(2, 4)], (0, 0)), (ops.h, (0, 0)), (ops.H, (0, 0)),
        (OperatorRep.identity(space), (0, 0)), (ops.X[0], shift), (ops.X[3], shift),
        (ops.K[1], shift), (ops.L[2], shift), (ops.P[0], shift), (ops.a_plus[0], (1, 1)),
        (ops.a_minus[1], (-1, -1)), (ops.v_plus[2], shift), (ops.v_minus[3], shift),
        (OperatorRep.from_matrix(space, definite_shift_matrix(space, rng, 0)), full),
        (OperatorRep.from_matrix(space, definite_shift_matrix(space, rng, 1, 1j)), full),
        (OperatorRep.zero(space), None),
    ]
    cases += [(op.adjoint(), None if band is None else (-band[1], -band[0])) for op, band in cases]
    d, e = level_vector(space, lambda k: k + 1.0), level_vector(space, lambda k: (k + 1.0) ** -0.5)
    cases += [(d[:, None] * ops.K[0] * e, shift), (d[:, None] * ops.J[(1, 3)] * e, (0, 0))]
    return n, cases


class TestLevelBand:
    def test_declared_and_derived_bands(self, band_cases):
        for op, band in band_cases[1]:
            assert op.band == band

    def test_product_matches_dense_and_vanishes_outside_its_band(self, band_cases):
        n, cases = band_cases
        for a, band_a in cases:
            for b, band_b in cases:
                product = a @ b
                dense = a.matrix @ b.matrix
                scale = max(1.0, float(np.abs(dense).max()))
                assert np.abs(product.matrix - dense).max() <= 1e-13 * scale
                if band_a is None or band_b is None:
                    assert product.phase is None and product.band is None
                    continue
                band = tuple(max(-n, min(n, x + y)) for x, y in zip(band_a, band_b))
                assert product.band == band
                assert max(_outside_band_blocks(product, band), default=0.0) == 0.0

    def test_sum_takes_the_union(self, band_cases):
        _, cases = band_cases
        for a, band_a in cases:
            for b, band_b in cases:
                if a.phase is not None and b.phase is not None and (a.phase, a.shift) != (b.phase, b.shift):
                    continue
                total = a + b
                if band_a is None or band_b is None:
                    assert total.band == (band_a or band_b)
                    continue
                band = (min(band_a[0], band_b[0]), max(band_a[1], band_b[1]))
                assert total.band == band
                assert max(_outside_band_blocks(total, band), default=0.0) == 0.0

    def test_scalars_and_negation_keep_the_band(self, ops4):
        for op in (ops4.J[(1, 2)], ops4.X[0], ops4.P[1]):
            assert (-op).band == (2.5 * op).band == (1j * op).band == (-1j * op).band == op.band
        assert (0 * ops4.X[0]).band is None

    def test_built_bands_cover_the_blocks_found_by_scan(self, ops_1_8):
        for op in _stored(ops_1_8):
            assert structure_faults(op) == (0, False)
            lo, hi = op.band
            for src, targets in block_map_reference(op).items():
                assert all(lo <= t - src <= hi for t in targets)

    def test_from_blocks_widens_the_band_to_a_far_block(self, ops4):
        # X_1's blocks and one level 0 -> 3 block, of X's odd shift: the band takes it in, so
        # products read it and its transpose
        space, x = ops4.space, ops4.X[0]
        far = np.arange(1.0, space.level_dim(3) + 1.0)[:, None]
        blocks = {(n + 1, n): x.block(n + 1, n) for n in range(space.n_max)}
        op = OperatorRep.from_blocks(space, {**blocks, (3, 0): far}, 1, parity=1)
        assert op.band == (-3, 3) and structure_faults(op) == (0, False)
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
    one R component, a full-band odd-shift matrix, the zero operator and their adjoints."""
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
        (OperatorRep.from_matrix(space, definite_shift_matrix(space, rng, 1)), None),
        (OperatorRep.zero(space), None),
    ]
    cases += [(op.adjoint(), parity) for op, parity in cases]
    return n, cases


def holding(op, held):
    """``op`` with its halves cut to the columns of levels <= ``held``, as a column-limited product
    leaves them, and asked for those columns."""
    prefix = operators._layout(op.space.n_max).prefixes[held]
    parts = tuple(x[:, :c] for x, c in zip(op.parts, prefix))
    return OperatorRep(op.space, parts, op.shift, op.phase, op.band, op.parity, held)


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
                lo, hi = (max(-n, min(n, x + y)) for x, y in zip(a.band, b.band))
                band = (lo, hi) if pa is None or pb is None else (min(lo, -hi), max(hi, -lo))
                assert bracket.band == band
                assert max(_outside_band_blocks(bracket, band), default=0.0) == 0.0
                if pa is None or pb is None:
                    assert bracket.parity is None
                else:
                    assert bracket.parity == sign * pa * pb
                    assert np.array_equal(bracket.real.T, bracket.parity * bracket.real)

    def test_one_product_only_with_both_parities(self, bracket_cases, monkeypatch):
        # at every top: one L-shaped product per bracket when both operands hold every
        # column, with the narrower band on the right; two column-limited products
        # otherwise, and whenever an operand holds fewer columns than every one
        products = []
        matmul, product = OperatorRep.__matmul__, OperatorRep._product

        def counting(a, b):
            products.append((a.band, b.band, b.top, False))
            return matmul(a, b)

        def counting_l_shaped(a, b, top, l_shaped=False):
            if l_shaped:
                products.append((a.band, b.band, top, True))
            return product(a, b, top, l_shaped)

        monkeypatch.setattr(OperatorRep, "__matmul__", counting)
        monkeypatch.setattr(OperatorRep, "_product", counting_l_shaped)
        n, cases = bracket_cases
        for top in range(n + 1):
            for a, pa in cases:
                for b, pb in cases:
                    products.clear()
                    a.at(top).commutator(b.at(top))
                    b.at(top).anticommutator(a.at(top))
                    assert all(t == top for _, _, t, _ in products)
                    if pa is None or pb is None:
                        assert len(products) == 4
                        assert not any(l_shaped for *_, l_shaped in products)
                    else:
                        # one product each, with the narrower band on the right
                        assert len(products) == 2
                        assert all(right[1] - right[0] <= left[1] - left[0] for left, right, _, _ in products)
                        assert all(l_shaped for *_, l_shaped in products)
        for top in range(n - 2):  # top + 2 < n: the narrow operand lacks the top level
            for a, _ in cases:
                if a.phase is None:
                    continue
                narrow = holding(a, top + 2).at(top)  # enough columns for a right operand raising by 2
                for b, _ in cases:
                    if b.phase is None or b.band[1] > 2:
                        continue
                    products.clear()
                    narrow.commutator(b.at(top))
                    b.at(top).anticommutator(narrow)
                    assert len(products) == 4
                    assert all(t == top and not l_shaped for _, _, t, l_shaped in products)

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
        assert (j - ops4.J[(3, 4)]).parity == (-2j * j).parity == -1
        assert (x + 1j * ops4.L[0]).parity is None
        assert (x @ k).parity is None and (d[:, None] * x).parity is None and (x * d).parity is None

    def test_from_blocks_writes_the_transpose_of_a_perturbed_block(self, ops4):
        # X_1's level 0 -> 1 block with its largest entry moved by one ulp: the level 1 -> 0
        # block is written from the moved block, so the operator stays exactly of its parity
        space, x = ops4.space, ops4.X[0]
        blocks = {(n + 1, n): x.block(n + 1, n).copy() for n in range(space.n_max)}
        row = int(np.argmax(np.abs(blocks[(1, 0)][:, 0])))
        blocks[(1, 0)][row, 0] = np.nextafter(blocks[(1, 0)][row, 0], np.inf)
        for phase, parity in ((1, 1), (1j, -1)):
            op = OperatorRep.from_blocks(space, blocks, 1, phase, parity)
            assert (op.phase, op.band, op.parity) == (phase, (-1, 1), parity)
            assert np.array_equal(op.real.T, parity * op.real)
            assert np.array_equal(op.block(0, 1), parity * blocks[(1, 0)].T)
            assert structure_faults(op) == (0, False)


def _stored(ops):
    return [*ops.J.values(), *ops.X, *ops.P, ops.H, ops.h, *ops.K, *ops.L,
            *ops.a_plus, *ops.a_minus, *ops.v_plus, *ops.v_minus]


def _generator_shift(a, b):
    return int(a >= 5) ^ int(b >= 5)


@pytest.fixture(scope="module", params=[4, 5])
def halves_cases(request):
    """(operator, its dense phase * real) for the 40 stored operators, T~_11, R_12, a random odd-shift
    matrix, the zero operator and the adjoints of those without a transpose parity (the adjoint of an
    operator with one is +-itself, value for value), with the masks of the blocks off either shift."""
    n = request.param
    ops = OperatorSet.build(orthonormalize(n))
    space = ops.space
    t, r = algebra.tensor_T(ops.generators), algebra.tensor_R(ops.generators)
    rng = np.random.default_rng(n + 10)
    cases = [*_stored(ops), t[(1, 1)], r[(1, 2)],
             OperatorRep.from_matrix(space, definite_shift_matrix(space, rng, 1)), OperatorRep.zero(space)]
    cases += [op.adjoint() for op in cases if op.parity is None]
    level = level_vector(space, lambda k: k)
    off = {s: (level[:, None] - level) % 2 != s for s in (0, 1)}
    return space, [(op, (op.phase or 0) * op.real) for op in cases], off


class TestParityHalves:
    """Arithmetic on the even- and odd-shift halves against dense references."""

    def test_products_and_brackets_match_dense(self, halves_cases):
        # dense real products of one left operand with every right operand at once, in a
        # basis ordered by level parity, where a half is one block of the dense matrix
        space, cases, _ = halves_cases
        ops = [op for op, _ in cases]
        parity = level_vector(space, lambda k: k % 2)
        order, evens = np.argsort(parity, kind="stable"), int(np.sum(parity == 0))
        halves = (slice(0, evens), slice(evens, space.dim))
        reals = np.array([op.real[np.ix_(order, order)] for op in ops])
        abs_reals = np.abs(reals)
        for a, ra, abs_ra in zip(ops, reals, abs_reals):
            # relative to the round-off bound of each product, |a| |b| entrywise
            scales = np.maximum((abs_ra @ abs_reals).max(axis=(1, 2)), (abs_reals @ abs_ra).max(axis=(1, 2)))
            for b, ab, ba, scale in zip(ops, ra @ reals, reals @ ra, scales):
                for result, dense in ((a @ b, ab), (a.commutator(b), ab - ba), (a.anticommutator(b), ab + ba)):
                    if a.phase is None or b.phase is None:
                        assert result.phase is None and result.shift is None
                        continue
                    assert result.shift == a.shift ^ b.shift
                    sign = (a.phase * b.phase / result.phase).real  # i i = -1 is carried as a sign
                    for p, part in enumerate(result.parts):
                        expected = sign * dense[halves[p ^ result.shift], halves[p]]
                        assert np.abs(part - expected).max() <= 1e-13 * max(1.0, scale)

    def test_sums_scalars_and_level_vectors_match_dense(self, halves_cases):
        space, cases, off = halves_cases
        d, e = level_vector(space, lambda k: k + 1.0), level_vector(space, lambda k: (k + 1.0) ** -0.5)
        for a, da in cases:
            for result, dense in ((-a, -da), (2.5 * a, 2.5 * da), (1j * a, 1j * da), (a * -3j, -3j * da),
                                  (d[:, None] * a * e, d[:, None] * da * e)):
                assert result.shift == a.shift
                assert np.array_equal((result.phase or 0) * result.real, dense)
            for b, db in cases:
                if a.phase is not None and b.phase is not None and a.phase != b.phase:
                    continue
                if a.phase is not None and b.phase is not None and a.shift != b.shift:
                    with pytest.raises(ArithmeticError, match="level shifts"):
                        a + b
                    with pytest.raises(ArithmeticError, match="level shifts"):
                        a - b
                    continue
                for result, dense in ((a + b, da + db), (a - b, da - db)):
                    assert result.shift == (a.shift if a.phase is not None else b.shift)
                    assert np.array_equal((result.phase or 0) * result.real, dense)
                    if result.phase is not None:
                        assert not result.real[off[result.shift]].any()

    def test_adjoint_with_a_parity_is_plus_or_minus_itself(self, halves_cases):
        for op, _ in halves_cases[1]:
            if op.parity is not None:
                adjoint = op.adjoint()
                assert (adjoint.parity, adjoint.shift) == (op.parity, op.shift)
                assert np.array_equal(adjoint.real, (1 if op.phase == 1 else -1) * op.parity * op.real)

    def test_real_is_zero_off_the_shift(self, halves_cases):
        space, cases, off = halves_cases
        for op, dense in cases:
            if op.phase is not None:
                assert not op.real[off[op.shift]].any()
                assert op.real[~off[op.shift]].any()
                assert not op.real.flags.writeable

    def test_from_matrix_takes_the_shift_and_refuses_mixed_ones(self, space4):
        rng = np.random.default_rng(3)
        for shift in (0, 1):
            m = definite_shift_matrix(space4, rng, shift)
            op = OperatorRep.from_matrix(space4, m)
            assert op.shift == shift and np.array_equal(op.real, m)
        assert OperatorRep.from_matrix(space4, np.zeros((space4.dim, space4.dim))).shift == 0
        mixed = definite_shift_matrix(space4, rng, 0)
        mixed[space4.level_slice(1), 0] = 1.0  # one level 0 -> 1 block in an even-shift matrix
        with pytest.raises(ValueError, match="both even- and odd-level-shift"):
            OperatorRep.from_matrix(space4, mixed)

    def test_from_blocks_refuses_a_block_off_its_shift(self, space4):
        for shift, key in ((0, (1, 0)), (0, (0, 3)), (1, (2, 2)), (1, (2, 0))):
            block = np.ones((space4.level_dim(key[0]), space4.level_dim(key[1])))
            for parity in (None, 1):
                with pytest.raises(ValueError, match="shift"):
                    OperatorRep.from_blocks(space4, {key: block}, shift, parity=parity)

    def test_stored_operators_and_tensor_components_have_their_shifts(self, ops4):
        assert [op.shift for op in (*ops4.J.values(), ops4.H, ops4.h)] == [0] * 8
        odd = [*ops4.X, *ops4.P, *ops4.K, *ops4.L, *ops4.a_plus, *ops4.a_minus, *ops4.v_plus, *ops4.v_minus]
        assert [op.shift for op in odd] == [1] * 32
        for g, m in ops4.generators.items():
            assert m.shift == _generator_shift(g.a, g.b)
        t, r = algebra.tensor_T(ops4.generators), algebra.tensor_R(ops4.generators)
        for a in range(1, 7):
            for b in range(a, 7):
                assert t[(a, b)].shift == _generator_shift(a, b)
                if a < b:
                    assert r[(a, b)].shift == _generator_shift(a, b)


def _widths(op):
    return tuple(x.shape[1] for x in op.parts)


class TestColumnLimits:
    """An operator asked for the columns of levels <= top (``at``) forms only those columns, equal
    to the full operator's there, and a read of a column an operator does not hold raises."""

    def test_products_and_brackets_equal_the_full_ones_on_their_columns(self, bracket_cases):
        n, cases = bracket_cases
        prefixes = operators._layout(n).prefixes
        for a, _ in cases:
            for b, _ in cases:
                abs_a, abs_b = np.abs(a.real), np.abs(b.real)
                scale = max(1.0, float((abs_a @ abs_b).max()), float((abs_b @ abs_a).max()))
                full = (a @ b, a.commutator(b), a.anticommutator(b))
                for top in range(n + 1):
                    limited = (a @ b.at(top), a.at(top).commutator(b.at(top)), a.at(top).anticommutator(b.at(top)))
                    for lim, ref in zip(limited, full):
                        if ref.phase is None:
                            assert lim.phase is None
                            continue
                        assert (lim.top, _widths(lim)) == (top, prefixes[top])
                        assert (lim.phase, lim.shift, lim.band, lim.parity) == (ref.phase, ref.shift, ref.band, ref.parity)
                        cut = [y[:, :c] for y, c in zip(ref.parts, prefixes[top])]
                        if lim is limited[0]:  # the same slabs: bit for bit
                            assert all(np.array_equal(x, y) for x, y in zip(lim.parts, cut))
                        else:  # the L region's rows are cut from the full slabs: round-off
                            assert max(float(np.abs(x - y).max(initial=0.0)) for x, y in zip(lim.parts, cut)) <= 1e-13 * scale

    def test_sums_scalars_and_level_vectors_work_on_the_columns_held(self, bracket_cases):
        n, cases = bracket_cases
        prefixes = operators._layout(n).prefixes
        d = level_vector(cases[0][0].space, lambda k: k + 1.0)
        for a, _ in cases:
            if a.phase is None:
                continue
            for top in range(n):
                narrow = holding(a, top)
                pairs = [(narrow + a, a + a), (a - narrow, a - a), (2.5 * narrow, 2.5 * a), (-1j * narrow, -1j * a),
                         (d[:, None] * narrow * d, d[:, None] * a * d)]
                for lim, ref in pairs:
                    assert (lim.top, _widths(lim)) == (top, prefixes[top])
                    assert all(np.array_equal(x, y[:, :c]) for x, y, c in zip(lim.parts, ref.parts, prefixes[top]))
                # operands holding every column keep them: a sum may stand left of a product
                assert _widths(a.at(top) + a.at(top)) == _widths(a)

    def test_reads_of_columns_not_held_raise(self, ops4):
        x, y, j = ops4.X[0], ops4.X[1], ops4.J[(1, 2)]
        full, narrow = x @ y, x @ y.at(1)  # narrow holds the columns of levels <= 1
        zero = OperatorRep.zero(ops4.space)
        reads = [
            lambda: narrow.real, lambda: narrow.matrix, narrow.adjoint, lambda: narrow.block(0, 2),
            lambda: narrow.norm(2), lambda: narrow.distance(full, 2), lambda: full.distance(narrow, 2),
            lambda: rel_residual(narrow, zero, 2), lambda: narrow.at(2),
            lambda: narrow @ x.at(1),  # x raises level 1 into level 2, a column narrow lacks
            lambda: narrow.commutator(x.at(1)),
        ]
        for read in reads:
            with pytest.raises(ValueError, match="columns"):
                read()
        # what it holds reads as the full product's columns
        assert np.array_equal(narrow.block(1, 1), full.block(1, 1))
        assert narrow.norm(1) == full.norm(1) and rel_residual(narrow, full, 1) == 0.0
        assert np.array_equal((narrow @ j.at(1)).block(1, 1), (full @ j).block(1, 1))
