"""Matrix representations of the algebra generators on a truncated space.

Builders produce, in dependency order: the angular momenta J_ij (first-order
differential operators, level preserving), the Hamiltonian H = (1/2) J.J and
the level operator h with Spec(h) = 1..N+1, the position operators X_i
(multiplication followed by projection, coupling adjacent levels only), the
boost pair K_i = sqrt(h) X_i sqrt(h) and L_i = -i[K_i, h], the ladder
operators A+-_i = K_i -+ i L_i, the momenta P_i, and the eigenoperator pair
V+-_i used as an independent construction route.

In the real harmonic basis every one of them is exactly real or exactly
imaginary: X, K, A+-, h and H are real, J, L, P and V+- imaginary.  Each
operator therefore stores a phase (1 or i) and one real float64 matrix, and
its arithmetic keeps that form: a sum of terms of different phases raises
instead of falling back to complex numbers.

Each operator also carries its level band (lo, hi): it maps level n into
levels n+lo..n+hi, and is exactly zero elsewhere.  J, h, H and the identity
keep the level (band (0, 0)) and X moves it by one (band (-1, 1)); every other
band follows from the arithmetic, and a product multiplies only the blocks
inside its operands' bands.

Each operator may carry its transpose parity tau (+1 or -1): ``real.T == tau *
real`` exactly.  J and L declare -1; X, K, h, H and the identity +1; sums of
equal parities, scalars, negation and ``adjoint()`` keep it, and P, T~ and R
get it from ``anticommutator``.  For two operands with a parity, b a is
tau_a tau_b (a b)^T, so ``commutator`` and ``anticommutator`` form one banded
product Y and return Y -+ tau_a tau_b Y^T, exactly of parity -+tau_a tau_b;
any other pair takes both products.  ``OperatorSet.build`` checks once that
every operator it stores is zero outside its band and exactly of its parity.

Builders take what they depend on as arguments, so every operator is built
once.  A function of h is a level vector, fn(n) at each basis index of level
n, applied by broadcasting; h itself stays a dense operator because it is the
generator M_56.

Truncation drops every block that would leave the space; operator identities
are therefore meaningful on interior levels only (see the verify module).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from typing import Mapping

import numpy as np

from .algebra import GENERATORS, GeneratorIndex
from .hilbert import TruncatedSpace

_BROADCAST_ZERO = np.zeros((1, 1))  # the zero operator's real part, broadcast against the other side
_BROADCAST_ZERO.flags.writeable = False


class OperatorRep:
    """Operator ``phase * real`` on a truncated space: phase 1 or 1j, ``real`` a real matrix.

    ``band`` is the structural level band (lo, hi): the operator maps level n
    into levels n+lo..n+hi, clipped to the space, and ``real`` is exactly zero
    outside it.  Without a band an operator gets the full band (-n_max, n_max).
    ``parity`` is +1 or -1 if ``real.T == parity * real`` exactly, else None.
    The zero operator has no phase, no storage, no band and no parity (all
    None); it adds to an operator of either phase.  Operators are values: no
    operation writes to an operand's ``real``.  Supported: ``@`` (bands add,
    parity dropped), ``+`` and ``-`` of equal phases (else ``ArithmeticError``;
    bands join, equal parities kept), real or imaginary scalars (parity kept),
    level vectors by broadcasting (``d[:, None] * op * e`` is diag(d) op
    diag(e); parity dropped), the conjugate transpose ``adjoint()`` (band
    (-hi, -lo), parity kept), ``commutator`` and ``anticommutator``.
    """

    __array_ufunc__ = None  # numpy hands ``array * op`` to __rmul__

    def __init__(
        self, space: TruncatedSpace, real: np.ndarray | None, phase: complex | None = 1,
        band: tuple[int, int] | None = None, parity: int | None = None,
    ):
        if band is None and real is not None:
            band = (-space.n_max, space.n_max)
        self.space, self.real, self.phase, self.band, self.parity = space, real, phase, band, parity

    @classmethod
    def from_matrix(cls, space: TruncatedSpace, matrix: np.ndarray) -> "OperatorRep":
        """The operator of a dense matrix that is exactly real or exactly imaginary, with the full band."""
        m = np.asarray(matrix)
        if m.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {space.dim}")
        if not m.imag.any():
            return cls(space, np.array(m.real, dtype=float))
        if not m.real.any():
            return cls(space, np.array(m.imag, dtype=float), 1j)
        raise ValueError("matrix is neither real nor imaginary")

    @classmethod
    def zero(cls, space: TruncatedSpace) -> "OperatorRep":
        return cls(space, None, None)

    @classmethod
    def identity(cls, space: TruncatedSpace) -> "OperatorRep":
        return cls(space, np.eye(space.dim), band=(0, 0), parity=1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.space.dim, self.space.dim)

    @property
    def matrix(self) -> np.ndarray:
        """Dense complex ``phase * real``, a new read-only array on every access."""
        m = np.zeros(self.shape, dtype=complex)
        if self.phase == 1:
            m.real = self.real
        elif self.phase == 1j:
            m.imag = self.real
        m.flags.writeable = False
        return m

    def _like(self, real: np.ndarray, phase: complex, parity: int | None) -> "OperatorRep":
        """A new operator with this one's band."""
        return OperatorRep(self.space, real, phase, self.band, parity)

    def adjoint(self) -> "OperatorRep":
        """Conjugate transpose: (i R)^dagger = i (-R^T); the band reverses, the parity stays."""
        if self.phase is None:
            return self
        lo, hi = self.band
        real = self.real.T if self.phase == 1 else -self.real.T
        return OperatorRep(self.space, real, self.phase, (-hi, -lo), self.parity)

    def __matmul__(self, other: "OperatorRep") -> "OperatorRep":
        # one product per source level j: other maps j into levels k0..k1, and
        # self maps those into t0..t1; every other block of the result is zero
        if not isinstance(other, OperatorRep):
            return NotImplemented
        if self.phase is None or other.phase is None:
            return OperatorRep.zero(self.space)
        top, offsets = self.space.n_max, self.space.offsets
        (alo, ahi), (blo, bhi) = self.band, other.band
        product = np.zeros(self.shape)
        for j in range(top + 1):
            k0, k1 = max(0, j + blo), min(top, j + bhi)
            t0, t1 = max(0, k0 + alo), min(top, k1 + ahi)
            if k0 > k1 or t0 > t1:
                continue
            rows = slice(offsets[t0], offsets[t1 + 1])
            inner = slice(offsets[k0], offsets[k1 + 1])
            cols = slice(offsets[j], offsets[j + 1])
            np.matmul(self.real[rows, inner], other.real[inner, cols], out=product[rows, cols])
        band = (max(-top, min(top, alo + blo)), max(-top, min(top, ahi + bhi)))
        if self.phase == other.phase == 1j:
            return OperatorRep(self.space, np.negative(product, out=product), 1, band)
        return OperatorRep(self.space, product, self.phase * other.phase, band)

    def _sum(self, other, sign: int) -> "OperatorRep":
        if isinstance(other, (int, float)) and other == 0:  # sum() starts from 0
            return self
        if not isinstance(other, OperatorRep):
            return NotImplemented
        if other.phase is None:
            return self
        if self.phase is None:
            return other if sign > 0 else -other
        if other.phase != self.phase:
            raise ArithmeticError(f"sum of operators of phases {self.phase} and {other.phase}")
        real = self.real + other.real if sign > 0 else self.real - other.real
        band = (min(self.band[0], other.band[0]), max(self.band[1], other.band[1]))
        parity = self.parity if self.parity == other.parity else None
        return OperatorRep(self.space, real, self.phase, band, parity)

    def _bracket(self, other: "OperatorRep", sign: int) -> "OperatorRep":
        # a b + sign * b a.  With both parities, b a = tau (a b)^T for tau = tau_a
        # tau_b, so one product Y gives Y + sign tau Y^T, exactly of parity sign tau;
        # Y is formed with the narrower band on the right, [a, b] = -[b, a]
        if self.parity is None or other.parity is None:
            return self @ other + other @ self if sign > 0 else self @ other - other @ self
        swap = other.band[1] - other.band[0] > self.band[1] - self.band[0]
        y = other @ self if swap else self @ other
        parity = sign * self.parity * other.parity
        real = np.add(y.real, y.real.T) if parity > 0 else np.subtract(y.real, y.real.T)
        if swap and sign < 0:
            np.negative(real, out=real)
        lo, hi = y.band
        return OperatorRep(self.space, real, y.phase, (min(lo, -hi), max(hi, -lo)), parity)

    def commutator(self, other: "OperatorRep") -> "OperatorRep":
        """[self, other] = self @ other - other @ self."""
        return self._bracket(other, -1)

    def anticommutator(self, other: "OperatorRep") -> "OperatorRep":
        """{self, other} = self @ other + other @ self."""
        return self._bracket(other, 1)

    def __add__(self, other) -> "OperatorRep":
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "OperatorRep":
        return self._sum(other, -1)

    def __rsub__(self, other) -> "OperatorRep":
        return (-self)._sum(other, 1)

    def __neg__(self) -> "OperatorRep":
        return self if self.phase is None else self._like(-self.real, self.phase, self.parity)

    def __mul__(self, factor) -> "OperatorRep":
        if isinstance(factor, OperatorRep):
            return NotImplemented  # operator products are written with @
        if isinstance(factor, np.ndarray):  # a level vector, as a row or as a column
            if np.iscomplexobj(factor):
                raise TypeError("a level vector multiplying an operator must be real")
            return self if self.phase is None else self._like(self.real * factor, self.phase, None)
        s = complex(factor)
        if s == 0 or self.phase is None:
            return OperatorRep.zero(self.space)
        if s.imag == 0:
            return self._like(s.real * self.real, self.phase, self.parity)
        if s.real == 0:  # i * (i R) = -R
            if self.phase == 1:
                return self._like(s.imag * self.real, 1j, self.parity)
            return self._like(-s.imag * self.real, 1, self.parity)
        raise ArithmeticError(f"scalar {factor!r} is neither real nor imaginary")

    __rmul__ = __mul__


def _declare(op: OperatorRep, parity: int) -> OperatorRep:
    """``op`` with the transpose parity its construction guarantees (checked by ``OperatorSet.build``)."""
    return OperatorRep(op.space, op.real, op.phase, op.band, parity)


def real_parts(*ops: OperatorRep) -> tuple[np.ndarray, ...]:
    """The real matrices of operators that share one phase; the zero operator
    gives a 1x1 zero that broadcasts.  Raises ``ArithmeticError`` on two phases."""
    if len({op.phase for op in ops} - {None}) > 1:
        raise ArithmeticError(f"operators of phases {[op.phase for op in ops]} compared")
    return tuple(_BROADCAST_ZERO if op.phase is None else op.real for op in ops)


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
            out[(i, j)] = -1j * OperatorRep(space, m, band=(0, 0), parity=-1)
    return out


def j_full(J: Mapping[tuple[int, int], OperatorRep], i: int, j: int) -> OperatorRep:
    if i == j:
        return OperatorRep.zero(next(iter(J.values())).space)
    return J[(i, j)] if i < j else -J[(j, i)]


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
        out.append(OperatorRep(space, m, band=(-1, 1), parity=1))
    return out


def build_H(space: TruncatedSpace, J: Mapping[tuple[int, int], OperatorRep]) -> OperatorRep:
    """Hamiltonian H = (1/2) J_ij J_ij (sum over both indices), exactly symmetric."""
    acc = sum(rep @ rep for rep in J.values())
    return _declare(0.5 * (acc + acc.adjoint()), 1)


def build_h(space: TruncatedSpace, H: OperatorRep) -> OperatorRep:
    """Level operator h with h^2 = H + 1, acting as n+1 on level n.

    Raises if H has an eigenvalue below -1, which would make the square root
    ill defined.
    """
    eigenvalues = np.linalg.eigvalsh(H.real)
    if eigenvalues.min() < -1.0 + 1e-9:
        raise ArithmeticError(f"H has eigenvalue {eigenvalues.min()} below -1; representation is broken")
    return OperatorRep(space, np.diag(level_vector(space, lambda n: n + 1.0)), band=(0, 0), parity=1)


def build_ladder(
    space: TruncatedSpace, X: list[OperatorRep]
) -> tuple[list[OperatorRep], list[OperatorRep], list[OperatorRep], list[OperatorRep]]:
    """Ladder operators and the boost pair: (A_plus, A_minus, K, L).

    K_i = sqrt(h) X_i sqrt(h); L_i = -i [K_i, h]; A+-_i = K_i -+ i L_i.
    A+_i strictly raises the level by one, A-_i strictly lowers it, and
    (A+_i)^dagger = A-_i exactly.  K's raising blocks are those of the
    broadcast product and its lowering blocks their transposes, so K is
    exactly symmetric and L exactly antisymmetric.
    """
    h = level_vector(space, lambda n: n + 1.0)
    sqrt_h = level_vector(space, lambda n: np.sqrt(n + 1.0))
    level = level_vector(space, lambda n: n)
    raising = level[:, None] > level  # X has no level-preserving block
    k_ops, l_ops, a_plus, a_minus = [], [], [], []
    for i in range(4):
        k = sqrt_h[:, None] * X[i].real * sqrt_h
        k = OperatorRep(space, np.where(raising, k, k.T), band=X[i].band, parity=1)
        l = _declare(-1j * (k * h - h[:, None] * k), -1)
        k_ops.append(k)
        l_ops.append(l)
        a_plus.append(k - 1j * l)
        a_minus.append(k + 1j * l)
    return a_plus, a_minus, k_ops, l_ops


def build_P(
    space: TruncatedSpace, J: Mapping[tuple[int, int], OperatorRep], X: list[OperatorRep]
) -> list[OperatorRep]:
    """Momentum operators P_i = -(1/2) sum_k {J_ik, X_k}, exactly Hermitian."""
    return [
        -0.5 * sum(j_full(J, i, k).anticommutator(X[k - 1]) for k in range(1, 5) if k != i)
        for i in range(1, 5)
    ]


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
        v_plus.append(-1j * ((h + 0.5)[:, None] * X[i]) - P[i])
        v_minus.append(-1j * ((-h + 0.5)[:, None] * X[i]) - P[i])
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
        _check_structure(ops)
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


def _check_structure(ops: "OperatorSet") -> None:
    # a product reads only the blocks inside its operands' bands, and a bracket
    # takes b a from the transpose of a b, so an entry a builder wrote outside
    # its declared band, or off its declared parity, would be lost silently
    level = level_vector(ops.space, lambda n: n)
    shift = level[:, None] - level  # target level minus source level
    outside = cache(lambda lo, hi: (shift < lo) | (shift > hi))  # one mask per distinct band
    stored = [*ops.J.values(), *ops.X, *ops.P, ops.H, ops.h, *ops.K, *ops.L,
              *ops.a_plus, *ops.a_minus, *ops.v_plus, *ops.v_minus]
    for op in stored:
        if op.phase is not None and op.real[outside(*op.band)].any():
            raise RuntimeError(f"an operator has a nonzero entry outside its level band {op.band}")
        if op.parity is not None and not np.array_equal(op.real.T, op.parity * op.real):
            raise RuntimeError(f"an operator is not exactly of its declared transpose parity {op.parity:+d}")


def _check_sign_convention(ops: "OperatorSet") -> None:
    # [A-_i, A+_j] = 2 h delta_ij - 2i J_ij on interior levels; the opposite
    # J sign cannot occur without breaking the rotation-subalgebra closure.
    # Both sides are real; only the interior columns compared are formed.
    if ops.space.n_max < 2:
        return
    cut = ops.space.offsets[ops.space.n_max]
    am, ap, rhs = real_parts(ops.a_minus[0], ops.a_plus[1], -2j * ops.J[(1, 2)])
    lhs = am @ ap[:, :cut] - ap @ am[:, :cut]
    res = np.linalg.norm(lhs - rhs[:, :cut])
    scale = max(1.0, np.linalg.norm(rhs[:, :cut]))
    if res / scale > 1e-8:
        raise RuntimeError(
            "ladder commutator does not match -2i J_12; operator conventions have drifted"
        )
