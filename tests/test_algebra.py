from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_sga import algebra
from sphere_sga.algebra import (
    GENERATORS,
    METRIC_DIAG,
    GeneratorIndex,
    SO42_METRIC,
    commutator_rhs,
    defining_representation,
    epsilon_sign,
    full_matrix,
    gen,
    jacobi_residual,
    metric,
    tensor_R,
    tensor_T,
)
from sphere_sga.classical import ambient_map, generator_array, random_ambient_states


def tensor_R_reference(ops):
    """Literal permutation-sum evaluation of R^ab: the slow, independent oracle for tensor_R."""
    table = {(g.a, g.b): np.asarray(ops[g], dtype=complex) for g in GENERATORS}
    zero = np.zeros_like(table[(1, 2)])
    out = {}
    for a in range(1, 7):
        out[(a, a)] = zero
        for b in range(a + 1, 7):
            rest = [x for x in range(1, 7) if x not in (a, b)]
            acc = np.zeros_like(zero)
            for p in permutations(rest):
                c, d, e, f = p
                sign = epsilon_sign((a, b) + p)
                first = full_matrix(table, c, d)
                second = full_matrix(table, e, f)
                acc += sign * (first @ second + second @ first)
            out[(a, b)] = acc
            out[(b, a)] = -acc
    return out


def test_metric_signature_and_square():
    assert SO42_METRIC.signature == (4, 2)
    g = SO42_METRIC.as_matrix()
    assert np.array_equal(g @ g, np.eye(6))
    assert metric(1, 1) == 1 and metric(5, 5) == -1 and metric(6, 6) == -1
    assert metric(1, 2) == 0


def test_generator_index_enumeration():
    assert len(GENERATORS) == 15
    assert len(set(GENERATORS)) == 15
    with pytest.raises(ValueError):
        GeneratorIndex(3, 3)
    with pytest.raises(ValueError):
        GeneratorIndex(5, 2)
    with pytest.raises(ValueError):
        GeneratorIndex(0, 4)


def test_commutator_boost_with_scalar():
    # [K_1, h] = i L_1 in the M-labelling
    combo = commutator_rhs(gen(1, 5), gen(5, 6))
    assert combo.as_dict() == {gen(1, 6): 1j}
    assert combo.scalar == 0


def test_commutator_disjoint_rotations_vanishes():
    combo = commutator_rhs(gen(1, 2), gen(3, 4))
    assert combo.is_zero()


def test_commutator_adjacent_rotations():
    combo = commutator_rhs(gen(1, 2), gen(2, 3))
    assert combo.as_dict() == {gen(1, 3): -1j}


def test_classical_mode_drops_the_factor():
    combo = commutator_rhs(gen(1, 5), gen(5, 6), mode="classical")
    assert combo.as_dict() == {gen(1, 6): -1}


def test_classical_mixed_brackets():
    # {M_i6, M_56} = M_i5, {M_i5, M_k6} = -delta_ik M_56, {M_i5, M_k5} = J_ik
    assert commutator_rhs(gen(1, 6), gen(5, 6), mode="classical").as_dict() == {gen(1, 5): 1}
    assert commutator_rhs(gen(1, 5), gen(1, 6), mode="classical").as_dict() == {gen(5, 6): -1}
    assert commutator_rhs(gen(1, 5), gen(2, 6), mode="classical").is_zero()
    assert commutator_rhs(gen(1, 5), gen(2, 5), mode="classical").as_dict() == {gen(1, 2): 1}
    assert commutator_rhs(gen(1, 6), gen(2, 6), mode="classical").as_dict() == {gen(1, 2): 1}


def test_commutator_antisymmetry_exhaustive():
    for g1, g2 in combinations(GENERATORS, 2):
        fwd = commutator_rhs(g1, g2)
        bwd = commutator_rhs(g2, g1)
        assert fwd.as_dict() == {k: -v for k, v in bwd.as_dict().items()}
    for g1 in GENERATORS:
        assert commutator_rhs(g1, g1).is_zero()


def test_jacobi_all_triples_exact_zero():
    assert jacobi_residual() == 0.0
    assert jacobi_residual(mode="classical") == 0.0


def test_jacobi_specific_triples():
    triples = [
        (gen(1, 2), gen(2, 3), gen(1, 3)),
        (gen(1, 5), gen(5, 6), gen(1, 6)),
        (gen(2, 5), gen(3, 6), gen(4, 5)),
    ]
    assert jacobi_residual(triples) == 0.0


def _random_hermitian_ops(seed: int, dim: int = 7):
    rng = np.random.default_rng(seed)
    out = {}
    for g in GENERATORS:
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        out[g] = (m + m.conj().T) / 2
    return out


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_tensor_T_matches_component_expansion(seed):
    ops = _random_hermitian_ops(seed)
    c = 2.0
    t = tensor_T(ops, c=c)
    dim = 7
    eye = np.eye(dim)

    def M(a, b):
        return algebra.full_matrix({(g.a, g.b): ops[g] for g in GENERATORS}, a, b)

    J = {(i, j): M(i, j) for i in range(1, 5) for j in range(1, 5)}
    K = [M(i, 5) for i in range(1, 5)]
    L = [M(i, 6) for i in range(1, 5)]
    h = M(5, 6)

    for i in range(1, 5):
        for j in range(i, 5):
            expect = (
                sum(J[(i, k)] @ J[(j, k)] + J[(j, k)] @ J[(i, k)] for k in range(1, 5))
                - (K[i - 1] @ K[j - 1] + K[j - 1] @ K[i - 1])
                - (L[i - 1] @ L[j - 1] + L[j - 1] @ L[i - 1])
                + c * (eye if i == j else 0 * eye)
            )
            assert np.allclose(t[(i, j)], expect, atol=1e-12)
        expect_5i = -(h @ L[i - 1] + L[i - 1] @ h) - sum(
            J[(i, j)] @ K[j - 1] + K[j - 1] @ J[(i, j)] for j in range(1, 5)
        )
        assert np.allclose(t[(5, i)], expect_5i, atol=1e-12)
        expect_6i = (h @ K[i - 1] + K[i - 1] @ h) - sum(
            J[(i, j)] @ L[j - 1] + L[j - 1] @ J[(i, j)] for j in range(1, 5)
        )
        assert np.allclose(t[(6, i)], expect_6i, atol=1e-12)

    expect_56 = sum(K[i] @ L[i] + L[i] @ K[i] for i in range(4))
    assert np.allclose(t[(5, 6)], expect_56, atol=1e-12)
    expect_55 = 2 * (sum(K[i] @ K[i] for i in range(4)) - h @ h) - c * eye
    assert np.allclose(t[(5, 5)], expect_55, atol=1e-12)
    expect_66 = 2 * (sum(L[i] @ L[i] for i in range(4)) - h @ h) - c * eye
    assert np.allclose(t[(6, 6)], expect_66, atol=1e-12)


@settings(max_examples=3, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_tensor_R_matches_permutation_sum(seed):
    ops = _random_hermitian_ops(seed, dim=5)
    fast = tensor_R(ops)
    slow = tensor_R_reference(ops)
    for key in fast:
        assert np.allclose(fast[key], slow[key], atol=1e-12)


def _stacked_generators():
    """Classical generator arrays at 5 random surface states and one off-surface state, (6, 6, 6)."""
    states = [ambient_map(a) for a in random_ambient_states(5, seed=29)]
    xs = np.array([s.x for s in states] + [[1.2, 0.3, -0.4, 0.1]])
    ps = np.array([s.p for s in states] + [[0.5, -0.7, 0.2, 0.9]])
    return generator_array(xs, ps)


def test_tensors_on_stacked_commuting_operands():
    # stacks of 1x1 matrices: each component is evaluated sample by sample
    M = _stacked_generators()
    ops = {g: M[:, g.a - 1, g.b - 1, None, None] for g in GENERATORS}
    t = tensor_T(ops, c=0.0)
    expect_t = np.einsum("...ac,c,...bc->...ab", M, np.array(METRIC_DIAG, dtype=float), M)
    r = tensor_R(ops)
    slow = tensor_R_reference(ops)
    for a in range(1, 7):
        for b in range(1, 7):
            assert t[(a, b)].shape == (len(M), 1, 1)
            assert np.allclose(t[(a, b)][:, 0, 0] / 2, expect_t[:, a - 1, b - 1], rtol=0, atol=1e-12)
            assert np.allclose(r[(a, b)], slow[(a, b)], rtol=0, atol=1e-12)
    assert all(v.dtype == np.float64 for v in (*t.values(), *r.values()))  # real operands stay real
    # the off-surface sample is what makes the comparison non-trivial
    assert np.abs(expect_t[-1]).max() > 0.1
    assert max(abs(r[key][-1, 0, 0]) for key in r) > 0.1


def test_tensors_on_mixed_real_and_complex_operands():
    # a real M12 among complex operands is cast to the common complex type
    rep = defining_representation()
    rng = np.random.default_rng(3)
    mixed = {g: rep[g] + 0.1 * rng.standard_normal((6, 6)) for g in GENERATORS}
    mixed[gen(1, 2)] = rng.standard_normal((6, 6))
    as_complex = {g: m.astype(complex) for g, m in mixed.items()}
    for tensor in (lambda ops: tensor_T(ops, c=2.0), tensor_R):
        got, expect = tensor(mixed), tensor(as_complex)
        for key in expect:
            assert got[key].dtype == np.complex128
            assert np.array_equal(got[key], expect[key])


def test_tensors_on_zero_input():
    dim = 3
    zeros = {g: np.zeros((dim, dim), dtype=complex) for g in GENERATORS}
    t = tensor_T(zeros, c=0.0)
    assert all(np.count_nonzero(v) == 0 for v in t.values())
    r = tensor_R(zeros)
    assert all(np.count_nonzero(v) == 0 for v in r.values())
    # with the shift, only the diagonal survives and equals c * g_aa
    t2 = tensor_T(zeros, c=2.0)
    for a in range(1, 7):
        assert np.allclose(t2[(a, a)], 2.0 * metric(a, a) * np.eye(dim))


def test_tensor_dimension_mismatch_raises():
    ops = {g: np.zeros((3, 3)) for g in GENERATORS}
    ops[gen(1, 2)] = np.zeros((4, 4))
    with pytest.raises(ValueError):
        tensor_T(ops)
    with pytest.raises(ValueError):
        tensor_R(ops)
    stacks = {g: np.zeros((5, 1, 1)) for g in GENERATORS}
    stacks[gen(1, 2)] = np.zeros((4, 1, 1))
    with pytest.raises(ValueError, match="common shape"):
        tensor_T(stacks)
    with pytest.raises(ValueError, match="not a square matrix"):
        tensor_R({g: np.zeros(3) for g in GENERATORS})


def test_defining_representation_closes_exactly():
    rep = defining_representation()
    table = {(g.a, g.b): rep[g] for g in GENERATORS}
    for g1, g2 in combinations(GENERATORS, 2):
        lhs = rep[g1] @ rep[g2] - rep[g2] @ rep[g1]
        combo = commutator_rhs(g1, g2)
        rhs = sum((coeff * rep[idx] for idx, coeff in combo.terms), np.zeros((6, 6), complex))
        assert np.array_equal(lhs, rhs)


def test_defining_representation_tensor_covariance():
    # [M_ab, T_cd] = i(g_ac T_bd - g_bc T_ad + g_ad T_cb - g_bd T_ca) follows
    # from the commutation relations alone, so it holds even where the
    # restriction tensor itself is nonzero.
    rep = defining_representation()
    t = tensor_T(rep, c=2.0)
    assert max(float(np.abs(v).max()) for v in t.values()) > 0.5
    for g1 in (gen(1, 2), gen(2, 5), gen(5, 6), gen(3, 6)):
        m = rep[g1]
        a, b = g1.a, g1.b
        for (c_, d_) in ((1, 1), (1, 2), (2, 5), (5, 6), (6, 6)):
            lhs = m @ t[(c_, d_)] - t[(c_, d_)] @ m
            rhs = 1j * (
                metric(a, c_) * t[(b, d_)]
                - metric(b, c_) * t[(a, d_)]
                + metric(a, d_) * t[(c_, b)]
                - metric(b, d_) * t[(c_, a)]
            )
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_full_matrix_sign_conventions():
    rep = defining_representation()
    table = {(g.a, g.b): rep[g] for g in GENERATORS}
    assert np.array_equal(algebra.full_matrix(table, 5, 1), -rep[gen(1, 5)])
    assert np.count_nonzero(algebra.full_matrix(table, 3, 3)) == 0
