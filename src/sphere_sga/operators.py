"""Matrix representations of the algebra generators on a truncated space.

Builders produce, in dependency order: the angular momenta J_ij (first-order
differential operators, level preserving), the Hamiltonian H = (1/2) J.J and
the level operator h with Spec(h) = 1..N+1, the position operators X_i
(multiplication followed by projection, coupling adjacent levels only), the
boost pair K_i = sqrt(h) X_i sqrt(h) and L_i = -i[K_i, h], the ladder
operators A+-_i = K_i -+ i L_i, the momenta P_i, and the eigenoperator pair
V+-_i used as an independent construction route.

Each operator stores only its dense complex matrix; builders take what they
depend on as arguments, so every operator is built once.  A function of h is
a level vector, fn(n) at each basis index of level n, applied by broadcasting;
h itself stays a dense operator because it is the generator M_56.

Truncation drops every block that would leave the space; operator identities
are therefore meaningful on interior levels only (see the verify module).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .algebra import GENERATORS, GeneratorIndex
from .hilbert import TruncatedSpace

@dataclass(eq=False)
class OperatorRep:
    """Dense complex operator on a truncated space."""

    space: TruncatedSpace
    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, space: TruncatedSpace, matrix: np.ndarray) -> "OperatorRep":
        m = np.ascontiguousarray(matrix, dtype=complex)
        if m.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {space.dim}")
        return cls(space=space, matrix=m)


def level_vector(space: TruncatedSpace, fn) -> np.ndarray:
    """fn(n) at every basis index of level n: a function of h, which acts per level.

    Multiplying by it broadcasts: ``d[:, None] * M * e`` is diag(d) M diag(e).
    """
    levels = range(space.n_max + 1)
    return np.repeat([fn(n) for n in levels], [space.level_dim(n) for n in levels])


# ---------------------------------------------------------------------------
# monomial-level linear maps
# ---------------------------------------------------------------------------


def _mult_matrix(space: TruncatedSpace, i: int, degree: int) -> np.ndarray:
    """Multiplication by x_i: monomials(degree) -> monomials(degree+1)."""
    src = space.monomial_list(degree)
    dst = space.monomial_list(degree + 1)
    index = {m: k for k, m in enumerate(dst)}
    out = np.zeros((len(dst), len(src)))
    for j, expts in enumerate(src):
        t = list(expts)
        t[i - 1] += 1
        out[index[tuple(t)], j] = 1.0
    return out


def _rotation_matrix(space: TruncatedSpace, i: int, j: int, degree: int) -> np.ndarray:
    """x_i d_j - x_j d_i on monomials(degree) (level preserving)."""
    src = space.monomial_list(degree)
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


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_J(space: TruncatedSpace) -> dict[tuple[int, int], OperatorRep]:
    """Angular momentum operators J_ij = -i(x_i d_j - x_j d_i), i < j in 1..4.

    Level preserving and Hermitian; they close the rotation subalgebra.  The
    overall sign is the unique one compatible with the commutation relations
    (verified at assembly time against the ladder commutator).
    """
    out = {}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            m = np.zeros((space.dim, space.dim))
            for n in range(space.n_max + 1):
                b = space.basis_matrix(n)
                blk = b.T @ space.gram_matrix(n, n) @ (_rotation_matrix(space, i, j, n) @ b)
                blk = (blk - blk.T) / 2.0  # exact antisymmetry against roundoff
                m[space.level_slice(n), space.level_slice(n)] = blk
            out[(i, j)] = OperatorRep.from_matrix(space, -1j * m)
    return out


def j_full(J: Mapping[tuple[int, int], OperatorRep], i: int, j: int) -> np.ndarray:
    if i == j:
        some = next(iter(J.values())).matrix
        return np.zeros_like(some)
    return J[(i, j)].matrix if i < j else -J[(j, i)].matrix


def build_X(space: TruncatedSpace) -> list[OperatorRep]:
    """Position operators: multiplication by x_i projected back onto the space.

    Couples level n to n+-1 only.  The down blocks are the transposes of the
    up blocks, so each X_i is exactly Hermitian.
    """
    out = []
    for i in range(1, 5):
        m = np.zeros((space.dim, space.dim))
        for n in range(space.n_max):
            up = space.basis_matrix(n + 1).T @ space.gram_matrix(n + 1, n + 1) @ (
                _mult_matrix(space, i, n) @ space.basis_matrix(n)
            )
            m[space.level_slice(n + 1), space.level_slice(n)] = up
            m[space.level_slice(n), space.level_slice(n + 1)] = up.T
        out.append(OperatorRep.from_matrix(space, m.astype(complex)))
    return out


def build_H(space: TruncatedSpace, J: Mapping[tuple[int, int], OperatorRep]) -> OperatorRep:
    """Hamiltonian H = (1/2) J_ij J_ij (sum over both indices)."""
    acc = np.zeros((space.dim, space.dim), dtype=complex)
    for rep in J.values():
        acc += rep.matrix @ rep.matrix
    acc = (acc + acc.conj().T) / 2.0
    return OperatorRep.from_matrix(space, acc)


def build_h(space: TruncatedSpace, H: OperatorRep) -> OperatorRep:
    """Level operator h with h^2 = H + 1, acting as n+1 on level n.

    Raises if H has an eigenvalue below -1, which would make the square root
    ill defined.
    """
    eigenvalues = np.linalg.eigvalsh(H.matrix)
    if eigenvalues.min() < -1.0 + 1e-9:
        raise ArithmeticError(f"H has eigenvalue {eigenvalues.min()} below -1; representation is broken")
    return OperatorRep.from_matrix(space, np.diag(level_vector(space, lambda n: n + 1.0)))


def build_ladder(
    space: TruncatedSpace, X: list[OperatorRep]
) -> tuple[list[OperatorRep], list[OperatorRep], list[OperatorRep], list[OperatorRep]]:
    """Ladder operators and the boost pair: (A_plus, A_minus, K, L).

    K_i = sqrt(h) X_i sqrt(h); L_i = -i [K_i, h]; A+-_i = K_i -+ i L_i.
    A+_i strictly raises the level by one, A-_i strictly lowers it, and
    (A+_i)^dagger = A-_i exactly.
    """
    h = level_vector(space, lambda n: n + 1.0)
    sqrt_h = level_vector(space, lambda n: np.sqrt(n + 1.0))
    k_ops, l_ops, a_plus, a_minus = [], [], [], []
    for i in range(4):
        k = sqrt_h[:, None] * X[i].matrix * sqrt_h
        l = -1j * (k * h - h[:, None] * k)
        a_p = k - 1j * l
        a_m = k + 1j * l
        k_ops.append(OperatorRep.from_matrix(space, k))
        l_ops.append(OperatorRep.from_matrix(space, l))
        a_plus.append(OperatorRep.from_matrix(space, a_p))
        a_minus.append(OperatorRep.from_matrix(space, a_m))
    return a_plus, a_minus, k_ops, l_ops


def build_P(
    space: TruncatedSpace, J: Mapping[tuple[int, int], OperatorRep], X: list[OperatorRep]
) -> list[OperatorRep]:
    """Momentum operators P_i = -(1/2) sum_k (J_ik X_k + X_k J_ik)."""
    out = []
    for i in range(1, 5):
        acc = np.zeros((space.dim, space.dim), dtype=complex)
        for k in range(1, 5):
            if k == i:
                continue
            jm = j_full(J, i, k)
            acc += jm @ X[k - 1].matrix + X[k - 1].matrix @ jm
        out.append(OperatorRep.from_matrix(space, -0.5 * acc))
    return out


def build_V(
    space: TruncatedSpace, X: list[OperatorRep], P: list[OperatorRep]
) -> tuple[list[OperatorRep], list[OperatorRep]]:
    """Eigenoperator pair V+-_i = -i(+-h + 1/2) X_i - P_i.

    Satisfies (h -+ 1) V+- = V+- h on interior levels; provides the second,
    independent route to the ladder operators up to one global phase per sign.
    """
    h = level_vector(space, lambda n: n + 1.0)
    v_plus, v_minus = [], []
    for i in range(4):
        v_plus.append(OperatorRep.from_matrix(space, -1j * ((h + 0.5)[:, None] * X[i].matrix) - P[i].matrix))
        v_minus.append(OperatorRep.from_matrix(space, -1j * ((-h + 0.5)[:, None] * X[i].matrix) - P[i].matrix))
    return v_plus, v_minus


@dataclass
class OperatorSet:
    """All operators built on one space, plus the assembled generator map."""

    space: TruncatedSpace
    J: dict[tuple[int, int], OperatorRep]
    X: list[OperatorRep]
    P: list[OperatorRep]
    H: OperatorRep
    h: OperatorRep
    K: list[OperatorRep]
    L: list[OperatorRep]
    a_plus: list[OperatorRep]
    a_minus: list[OperatorRep]
    v_plus: list[OperatorRep]
    v_minus: list[OperatorRep]
    generators: dict[GeneratorIndex, OperatorRep]
    build_seconds: float = 0.0

    @classmethod
    def build(cls, space: TruncatedSpace) -> "OperatorSet":
        t0 = time.perf_counter()
        J = build_J(space)
        H = build_H(space, J)
        h = build_h(space, H)
        X = build_X(space)
        a_plus, a_minus, K, L = build_ladder(space, X)
        P = build_P(space, J, X)
        v_plus, v_minus = build_V(space, X, P)
        generators = _assemble(space, J, K, L, h)
        ops = cls(
            space=space, J=J, X=X, P=P, H=H, h=h, K=K, L=L,
            a_plus=a_plus, a_minus=a_minus, v_plus=v_plus, v_minus=v_minus,
            generators=generators, build_seconds=time.perf_counter() - t0,
        )
        _check_sign_convention(ops)
        return ops


def _assemble(space, J, K, L, h) -> dict[GeneratorIndex, OperatorRep]:
    out: dict[GeneratorIndex, OperatorRep] = {}
    for g in GENERATORS:
        if g.b <= 4:
            out[g] = J[(g.a, g.b)]
        elif g.b == 5:
            out[g] = K[g.a - 1]
        elif g.a <= 4:
            out[g] = L[g.a - 1]
        else:
            out[g] = h
    return out


def assemble_so42(space: TruncatedSpace) -> dict[GeneratorIndex, OperatorRep]:
    """Map generator label -> operator: M_ij = J_ij, M_i5 = K_i, M_i6 = L_i, M_56 = h."""
    return OperatorSet.build(space).generators


def _check_sign_convention(ops: "OperatorSet") -> None:
    # [A-_i, A+_j] = 2 h delta_ij - 2i J_ij on interior levels; the opposite
    # J sign cannot occur without breaking the rotation-subalgebra closure.
    if ops.space.n_max < 2:
        return
    cut = ops.space.offsets[ops.space.n_max]
    lhs = ops.a_minus[0].matrix @ ops.a_plus[1].matrix - ops.a_plus[1].matrix @ ops.a_minus[0].matrix
    rhs = -2j * ops.J[(1, 2)].matrix
    res = np.linalg.norm((lhs - rhs)[:, :cut])
    scale = max(1.0, np.linalg.norm(rhs[:, :cut]))
    if res / scale > 1e-8:
        raise RuntimeError(
            "ladder commutator does not match -2i J_12; operator conventions have drifted"
        )
