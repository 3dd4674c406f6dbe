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
operator therefore stores a phase (1 or i) and real float64 storage, and its
arithmetic keeps that form: a sum of terms of different phases raises instead
of falling back to complex numbers.

Every basis column lies in one exponent-parity class, the pattern c of its
monomials' exponents mod 2 (x1 the bit 8 .. x4 the bit 1, see
``hilbert.orthonormalize``), and multiplying by x_i or differentiating by x_i
flips bit i.  So each operator maps class c into class c ^ g for one 4-bit
``grade`` g (the Bander-Itzykson selection rule, Rev. Mod. Phys. 38, 330
(1966)): J_ij has the grade bit_i ^ bit_j; X_i, K_i, L_i, P_i, A+-_i and V+-_i
bit_i; h, H and the identity 0; and a product the xor of its operands'
grades, so M_ab has bit_a ^ bit_b with bit_5 = bit_6 = 0.  The real storage is
one (16, S, S) stack ``blocks``: ``blocks[c]`` maps class c into class c ^ g,
rows and columns in level order within their class, S the largest class over
levels 0..n_max, padding rows and columns exactly zero; every entry between
classes of another grade is zero without being stored.  A product is one
batched matmul, ``A.blocks[c ^ g_B] @ B.blocks[c]`` for every c; a sum of
different grades raises, as a sum of different phases does.  ``shift``, the
parity of every level change, is popcount(g) mod 2.  The dense ``real`` and
``matrix`` and the level blocks ``block(t, j)`` are gathered copies, for the
few dense readers.

Each operator may carry its transpose parity tau (+1 or -1): ``real.T == tau *
real`` exactly.  J and L have -1; X, K, h, H and the identity +1; sums of
equal parities, scalars, negation and ``adjoint()`` keep it, and P, T~ and R
get it from ``anticommutator``.  For two operands with a parity, b a is
tau_a tau_b (a b)^T, so ``commutator`` and ``anticommutator`` form one product
Y and return Y -+ tau_a tau_b Y^T (the transpose's stack is Y's, class c ^ g
for class c, each block transposed), exactly of parity -+tau_a tau_b; any
other pair takes both products.

The builders write the class stacks: b^T G is block-diagonal over the classes
(``TruncatedSpace.class_duals``) and a level's columns of a class are one slot
range, so each class product of J or X is one slice of its stack R.  J is
-i(R - R^T), X and H are R + R^T (each entry and its transposed one formed by
one addition), h and the identity are diagonal, and K, L and A+- are X's
raising entries, scaled and transposed the same way: grade and parity hold by
construction and are not checked afterwards.  ``from_matrix``, the one
constructor from a dense matrix, derives the grade and refuses two grades.

The stack holds every column, and every product computes every column.
``norm(top)`` is the Frobenius norm of the columns of levels <= top, a column
prefix of every class, and every operator residual (see the verify module) is
a ratio of such norms: an identity is compared on its interior columns without
the operators knowing which they are.  ``entries(top)`` copies those columns
into one flat array: below n_max through one cached int32 index per top
(``_Layout.columns``), every row of each such column included, since padding
rows are exactly zero; from n_max on, the whole stack, with no index.  Norms
sum its squares by ``np.einsum``, which calls no BLAS, so their bytes do not
depend on the thread count.

Builders take what they depend on as arguments, so every operator is built
once.  A function of h is a level vector, fn(n) at each basis index of level
n, applied by broadcasting; h itself stays an operator because it is the
generator M_56.

Truncation drops every block that would leave the space; operator identities
are therefore meaningful on interior levels only (see the verify module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Mapping

import numpy as np

from .algebra import GENERATORS, GeneratorIndex, full_matrix
from .hilbert import TruncatedSpace, _column_classes, shift_map

_XOR = tuple(np.arange(16) ^ g for g in range(16))  # class c -> c ^ g, per grade g


def _bit(i: int) -> int:
    """The grade of x_i, i in 1..4: the exponent-parity bit that x_i and d_i flip."""
    return 8 >> (i - 1)


class _Layout:
    """Where the basis columns of levels 0..n_max sit in the class stack."""

    def __init__(self, n_max: int):
        classes = [_column_classes(n) for n in range(n_max + 1)]
        self.cls = np.concatenate(classes)
        # level n's columns of class c, in natural order, take the slots start[c, n] .. start[c, n + 1] - 1
        self.start = np.cumsum([np.zeros(16, dtype=np.intp)] + [np.bincount(c, minlength=16) for c in classes], 0).T
        dim, totals = len(self.cls), self.start[:, -1]
        self.size = int(totals.max())
        order = np.argsort(self.cls, kind="stable")  # class by class, natural (level) order within each
        self.pos = np.empty(dim, dtype=np.intp)
        self.pos[order] = np.arange(dim) - np.repeat(np.cumsum(totals) - totals, totals)
        self.index = np.full((16, self.size), dim)  # the natural index of each slot, dim for padding
        self.index[self.cls, self.pos] = np.arange(dim)
        level = np.append(np.repeat(np.arange(n_max + 1), [(n + 1) ** 2 for n in range(n_max + 1)]), n_max + 1)
        self.level = level[self.index]  # the level of each slot, n_max + 1 for padding
        self.n_max, self._columns = n_max, {}
        for array in (self.cls, self.start, self.pos, self.index, self.level):
            array.flags.writeable = False  # shared by every caller

    def columns(self, top: int) -> np.ndarray | None:
        """The flat stack positions (int32, ascending) of every entry in a column of a level <= ``top``
        (>= 0), every row included: padding rows are exactly zero.  None from n_max on, where every
        entry is read.  Formed on first use, one index per top."""
        if top >= self.n_max:
            return None
        if top not in self._columns:
            kept = np.broadcast_to(self.level[:, None, :] <= top, (16, self.size, self.size))
            index = np.flatnonzero(kept).astype(np.int32)
            index.flags.writeable = False
            self._columns[top] = index
        return self._columns[top]


_layout = cache(_Layout)  # one layout per size


def _length(entries: np.ndarray) -> float:
    """The Euclidean norm of a flat vector, summed by ``np.einsum`` (no BLAS call)."""
    return math.sqrt(np.einsum("i,i", entries, entries))


class OperatorRep:
    """Operator ``phase * real`` on a truncated space: phase 1 or 1j, ``real`` a real matrix
    stored as its class stack ``blocks``.

    ``grade`` (0..15) is the xor of the exponent-parity classes every entry joins:
    ``blocks[c]`` (S x S) maps class c to class c ^ grade, each class in level order with
    zero padding, and every other entry of ``real`` is zero.  ``shift`` is popcount(grade)
    mod 2, the parity of every level change.  ``parity`` is +1 or -1 if ``real.T == parity *
    real`` exactly, else None.  The zero operator has no phase, no blocks, no grade and no
    parity (all None); it adds to any operator.  Operators are values: no operation writes to
    an operand's blocks.  The builders write the stacks; ``from_matrix`` makes an operator
    from a dense matrix, deriving the grade.
    Supported: ``@`` (grades xor, parity dropped, one batched matmul), ``+`` and ``-`` of
    equal phases and grades (else ``ArithmeticError``; equal parities kept), real or
    imaginary scalars (parity kept; 1 returns the operand, and a factor that only changes the
    phase shares its blocks), level vectors by broadcasting (``d[:, None] * op * e`` is
    diag(d) op diag(e); parity dropped), the conjugate transpose ``adjoint()`` (parity kept),
    ``commutator`` and ``anticommutator``.  ``entries(top)``, ``norm(top)`` and
    ``distance(other, top)`` read the columns of levels <= top.
    """

    __array_ufunc__ = None  # numpy hands ``array * op`` to __rmul__

    def __init__(
        self, space: TruncatedSpace, blocks: np.ndarray | None, grade: int | None, phase: complex | None = 1,
        parity: int | None = None,
    ):
        self.space, self.blocks, self.grade, self.phase, self.parity = space, blocks, grade, phase, parity

    @classmethod
    def from_matrix(cls, space: TruncatedSpace, matrix: np.ndarray) -> "OperatorRep":
        """Public constructor from a dense matrix that is exactly real or exactly imaginary and
        joins classes of one grade (else ``ValueError``); a zero matrix gets grade 0."""
        m = np.asarray(matrix)
        if m.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {space.dim}")
        if not m.imag.any():
            real, phase = m.real, 1
        elif not m.real.any():
            real, phase = m.imag, 1j
        else:
            raise ValueError("matrix is neither real nor imaginary")
        layout = _layout(space.n_max)
        rows, cols = np.nonzero(real)
        grades = sorted(set((layout.cls[rows] ^ layout.cls[cols]).tolist()))
        if len(grades) > 1:
            raise ValueError(f"matrix has entries off one grade: it joins classes of grades {grades}")
        blocks = np.zeros((16, layout.size, layout.size))
        blocks[layout.cls[cols], layout.pos[rows], layout.pos[cols]] = real[rows, cols]
        return cls(space, blocks, grades[0] if grades else 0, phase)

    @classmethod
    def zero(cls, space: TruncatedSpace) -> "OperatorRep":
        return cls(space, None, None, None)

    @classmethod
    def identity(cls, space: TruncatedSpace) -> "OperatorRep":
        return _diagonal(space, lambda n: 1.0)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.space.dim, self.space.dim)

    @property
    def shift(self) -> int | None:
        """The parity of every level change, popcount(grade) mod 2; None for the zero operator."""
        return None if self.grade is None else self.grade.bit_count() % 2

    @property
    def real(self) -> np.ndarray:
        """Dense real matrix in natural level order, a new read-only array on every access."""
        m = self._gather(slice(0, self.space.dim), slice(0, self.space.dim))
        m.flags.writeable = False
        return m

    @property
    def matrix(self) -> np.ndarray:
        """Dense complex ``phase * real`` (public API), a new read-only array on every access."""
        m = np.zeros(self.shape, dtype=complex)
        if self.phase == 1:
            m.real = self.real
        elif self.phase == 1j:
            m.imag = self.real
        m.flags.writeable = False
        return m

    def block(self, target: int, source: int) -> np.ndarray:
        """The real block from level ``source`` into level ``target``, a new array."""
        return self._gather(self.space.level_slice(target), self.space.level_slice(source))

    def _gather(self, rows: slice, cols: slice) -> np.ndarray:
        """The dense real entries of natural ``rows`` and ``cols``: entry (r, s) is the stack's
        (class of s, position of r, position of s) where r's class is s's ^ grade, else 0."""
        if self.phase is None:
            return np.zeros((rows.stop - rows.start, cols.stop - cols.start))
        layout, size = _layout(self.space.n_max), self.blocks.shape[1]
        source = layout.cls[cols]  # one flat index (class, position, position) per entry
        values = np.take(self.blocks, (layout.pos[rows] * size)[:, None] + (source * size**2 + layout.pos[cols]))
        return np.where(layout.cls[rows][:, None] == source ^ self.grade, values, 0.0)

    def entries(self, top: int) -> np.ndarray:
        """The stack's entries in the columns of levels <= ``top`` (>= 0), a column prefix of every
        class, as a new flat array in stack order; every entry (padding included, exactly 0) from
        n_max on.  Not for the zero operator."""
        columns = _layout(self.space.n_max).columns(top)
        return self.blocks.flatten() if columns is None else self.blocks.take(columns)

    def norm(self, top: int) -> float:
        """Frobenius norm of the columns of levels <= ``top``; 0.0 for ``top < 0`` or the zero
        operator, every column for ``top >= n_max``."""
        if self.phase is None or top < 0:
            return 0.0
        return _length(self.entries(top))

    def distance(self, other: "OperatorRep", top: int) -> float:
        """``(self - other).norm(top)``.  Different phases or grades raise ``ArithmeticError``,
        as ``-`` does."""
        if self.phase is None or other.phase is None:  # |R - 0| = |0 - R| = |R|
            return (other if self.phase is None else self).norm(top)
        self.check_summable(other)
        if top < 0:
            return 0.0
        difference = self.entries(top)  # a new array, overwritten by the difference
        return _length(np.subtract(difference, other.entries(top), out=difference))

    def _like(self, blocks, phase: complex, parity: int | None) -> "OperatorRep":
        """A new operator with this one's grade."""
        return OperatorRep(self.space, blocks, self.grade, phase, parity)

    def _partner(self) -> np.ndarray:
        """The stack in the order of its target classes: entry c is ``blocks[c ^ grade]``."""
        return self.blocks if self.grade == 0 else self.blocks.take(_XOR[self.grade], axis=0)

    def _with_transpose(self, parity: int) -> "OperatorRep":
        """``phase * (R + parity * R^T)`` for this operator's real part R: exactly of the transpose
        parity ``parity``, each entry and its transpose's formed by one addition."""
        blocks = (np.add if parity > 0 else np.subtract)(self.blocks, self._partner().swapaxes(1, 2))
        return self._like(blocks, self.phase, parity)

    def adjoint(self) -> "OperatorRep":
        """Conjugate transpose: (i R)^dagger = i (-R^T); the parity stays.  The
        transpose maps class c to c ^ grade by the transpose of ``blocks[c ^ grade]``."""
        if self.phase is None:
            return self
        flipped = self._partner().swapaxes(1, 2)
        return self._like(flipped if self.phase == 1 else -flipped, self.phase, self.parity)

    def __matmul__(self, other: "OperatorRep") -> "OperatorRep":
        if not isinstance(other, OperatorRep):
            return NotImplemented
        if self.phase is None or other.phase is None:
            return OperatorRep.zero(self.space)
        # an index keeps a transposed stack's memory order, and with it the product's bytes
        left = self.blocks if other.grade == 0 else self.blocks[_XOR[other.grade]]
        blocks = np.matmul(left, other.blocks)
        phase = self.phase * other.phase
        if phase == -1:  # i * i: the sign goes into the blocks
            phase = 1
            np.negative(blocks, out=blocks)
        return OperatorRep(self.space, blocks, self.grade ^ other.grade, phase)

    def check_summable(self, other: "OperatorRep") -> None:
        """Raise ``ArithmeticError`` unless ``self + other`` exists: equal phases and grades."""
        if other.phase != self.phase:
            raise ArithmeticError(f"sum of operators of phases {self.phase} and {other.phase}")
        if other.grade != self.grade:
            raise ArithmeticError(f"sum of operators of grades {self.grade} and {other.grade}")

    def _sum(self, other, sign: int) -> "OperatorRep":
        if isinstance(other, (int, float)) and other == 0:  # sum() starts from 0
            return self
        if not isinstance(other, OperatorRep):
            return NotImplemented
        if other.phase is None:
            return self
        if self.phase is None:
            return other if sign > 0 else -other
        self.check_summable(other)
        blocks = (np.add if sign > 0 else np.subtract)(self.blocks, other.blocks)
        parity = self.parity if self.parity == other.parity else None
        return self._like(blocks, self.phase, parity)

    def _bracket(self, other: "OperatorRep", sign: int) -> "OperatorRep":
        # a b + sign * b a.  With both parities, b a = tau (a b)^T for tau = tau_a tau_b, so
        # one product Y gives Y + sign tau Y^T, exactly of parity sign tau
        if self.parity is None or other.parity is None:
            return self @ other + other @ self if sign > 0 else self @ other - other @ self
        y = self @ other
        return y if y.phase is None else y._with_transpose(sign * self.parity * other.parity)

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

    def __neg__(self) -> "OperatorRep":
        return self if self.phase is None else self._like(-self.blocks, self.phase, self.parity)

    def __mul__(self, factor) -> "OperatorRep":
        if isinstance(factor, OperatorRep):
            return NotImplemented  # operator products are written with @
        if isinstance(factor, np.ndarray):  # a level vector, as a row (dim,) or as a column (dim, 1)
            if np.iscomplexobj(factor):
                raise TypeError("a level vector multiplying an operator must be real")
            if self.phase is None:
                return self
            by_class = np.append(factor.ravel(), 0.0)[_layout(self.space.n_max).index]  # (16, S), padding 0
            if factor.ndim == 2:  # the rows of blocks[c] are class c ^ grade
                return self._like(self.blocks * by_class[_XOR[self.grade], :, None], self.phase, None)
            return self._like(self.blocks * by_class[:, None, :], self.phase, None)
        s = complex(factor)
        if s == 0 or self.phase is None:
            return OperatorRep.zero(self.space)
        if s == 1:  # operators are values: the operand itself
            return self
        if s.imag == 0:
            return self._like(s.real * self.blocks, self.phase, self.parity)
        if s.real == 0:  # i * (i R) = -R; where only the phase changes, the blocks are shared
            phase, scale = (1j, s.imag) if self.phase == 1 else (1, -s.imag)
            return self._like(self.blocks if scale == 1 else scale * self.blocks, phase, self.parity)
        raise ArithmeticError(f"scalar {factor!r} is neither real nor imaginary")

    __rmul__ = __mul__


def level_vector(space: TruncatedSpace, fn) -> np.ndarray:
    """fn(n) at every basis index of level n: a function of h, which acts per level.

    Multiplying by it broadcasts: ``d[:, None] * M * e`` is diag(d) M diag(e).
    """
    levels = range(space.n_max + 1)
    return np.repeat([fn(n) for n in levels], [space.level_dim(n) for n in levels])


def _diagonal(space: TruncatedSpace, fn) -> OperatorRep:
    """The operator fn(n) on level n, a function of h: grade 0, each class block diagonal."""
    level = _layout(space.n_max).level
    diagonal = np.where(level <= space.n_max, fn(level), 0.0)  # padding 0
    return OperatorRep(space, diagonal[:, :, None] * np.eye(level.shape[1]), 0, parity=1)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _step(up: int, down: int | None = None) -> tuple[int, ...]:
    """The exponent change e_up - e_down of variables 1..4, or e_up alone without ``down``."""
    return tuple(int(k == up) - int(k == down) for k in range(1, 5))


def _compress(space: TruncatedSpace, grades: list[int], images) -> np.ndarray:
    """The stacks R (count, 16, S, S) of b^T G stack for each (level, source, stack) of ``images``: stack
    the images (count, monomials(level), (source + 1)^2) of level source's basis under operators of
    ``grades``, b and G level's basis and Gram.  Class t's rows are its block of b^T G (``class_duals``)
    times the stack's rows of class t, nonzero in source class t ^ g only: one slice of R per (t, g)."""
    layout = _layout(space.n_max)
    out, start = np.zeros((len(grades), 16, layout.size, layout.size)), layout.start.tolist()
    for level, source, stack in images:
        order = np.argsort(_column_classes(source), kind="stable")  # the source columns class by class
        cols = [slice(start[c][source], start[c][source + 1]) for c in range(16)]  # class c's slots
        first = np.cumsum([0] + [col.stop - col.start for col in cols]).tolist()  # where c begins in order
        for classes, rows, dual in space.class_duals(level):
            products = (dual @ stack[:, rows])[..., order]
            for t, product in zip(classes.tolist(), products.swapaxes(0, 1)):
                target = slice(start[t][level], start[t][level + 1])
                for p, g in enumerate(grades):
                    out[p, t ^ g, target, cols[t ^ g]] = product[p, :, first[t ^ g]:first[(t ^ g) + 1]]
    return out


def build_J(space: TruncatedSpace) -> dict[tuple[int, int], OperatorRep]:
    """Angular momentum operators J_ij = -i(x_i d_j - x_j d_i), i < j in 1..4.

    Level preserving and Hermitian; they close the rotation subalgebra.  The
    overall sign is the unique one compatible with the commutation relations
    (verified at assembly time against the ladder commutator).  On a level, x_j d_i
    compresses to the transpose of x_i d_j's compression (x_i and d_i are adjoint
    in the Fischer product, a multiple of the sphere's), so J_ij is -i(a - a^T),
    a = b^T G (x_i d_j b) on each level: one shift-map step per pair, a level's six
    in one ``shift_map`` call; exactly antisymmetric, of grade bit_i ^ bit_j.
    """
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    grades = [_bit(i) ^ _bit(j) for i, j in pairs]
    steps, ks = [_step(i, j) for i, j in pairs], [j for _, j in pairs]
    images = ((n, n, shift_map(n, steps, ks, space.basis_matrix(n))) for n in range(space.n_max + 1))
    a = _compress(space, grades, images)
    return {pair: -1j * OperatorRep(space, r, g)._with_transpose(-1) for pair, r, g in zip(pairs, a, grades)}


def build_X(space: TruncatedSpace) -> list[OperatorRep]:
    """Position operators: multiplication by x_i projected back onto the space.

    Couples level n to n+-1 only; the up block is b^T G (x_i b), a level's four
    x_i b placed by one ``shift_map`` call.  The down blocks are their transposes:
    X_i is exactly Hermitian, of grade bit_i.
    """
    grades, steps = [_bit(i) for i in range(1, 5)], [_step(i) for i in range(1, 5)]
    images = ((n + 1, n, shift_map(n, steps, [None] * 4, space.basis_matrix(n))) for n in range(space.n_max))
    return [OperatorRep(space, r, g)._with_transpose(1) for r, g in zip(_compress(space, grades, images), grades)]


def build_H(space: TruncatedSpace, J: Mapping[tuple[int, int], OperatorRep]) -> OperatorRep:
    """Hamiltonian H = (1/2) J_ij J_ij (sum over both indices), stored symmetrized, (R + R^T) / 2
    for R the sum over i < j, so that H is exactly symmetric."""
    return (0.5 * sum(rep @ rep for rep in J.values()))._with_transpose(1)


def build_h(space: TruncatedSpace) -> OperatorRep:
    """Level operator h, n + 1 on level n, so that h^2 = H + 1 (the ``spectrum`` check's identity)."""
    return _diagonal(space, lambda n: n + 1.0)


def build_ladder(
    space: TruncatedSpace, X: list[OperatorRep]
) -> tuple[list[OperatorRep], list[OperatorRep], list[OperatorRep], list[OperatorRep]]:
    """Ladder operators and the boost pair: (A_plus, A_minus, K, L).

    K_i = sqrt(h) X_i sqrt(h); L_i = -i [K_i, h]; A+-_i = K_i -+ i L_i.
    K's raising blocks, level n -> n+1, are sqrt(n+2) X_i sqrt(n+1), and its
    lowering ones their transposes, so K is exactly symmetric.  h is n + 1 on
    level n, so L_i = i (K_i up - K_i down), exactly antisymmetric; A+_i = 2 K_i up,
    and A-_i = (A+_i)^dagger = 2 K_i down is stored as its transpose.  All have X_i's grade;
    the raising entries are those of X_i's stack whose row slot has the higher level.
    """
    levels = _layout(space.n_max).level
    root = level_vector(space, lambda n: math.sqrt(n + 1.0))
    k_ops, l_ops, a_plus = [], [], []
    for x in X:
        raising = levels[_XOR[x.grade], :, None] > levels[:, None, :]  # blocks[c]'s rows are class c ^ grade
        up = (root[:, None] * OperatorRep(space, np.where(raising, x.blocks, 0.0), x.grade) * root).blocks
        k_ops.append(OperatorRep(space, up, x.grade)._with_transpose(1))
        l_ops.append(OperatorRep(space, up, x.grade, 1j)._with_transpose(-1))
        a_plus.append(OperatorRep(space, 2.0 * up, x.grade))
    return a_plus, [a.adjoint() for a in a_plus], k_ops, l_ops


def build_P(
    space: TruncatedSpace, J: Mapping[tuple[int, int], OperatorRep], X: list[OperatorRep]
) -> list[OperatorRep]:
    """Momentum operators P_i = -(1/2) sum_k {J_ik, X_k}, exactly Hermitian."""
    return [
        -0.5 * sum(full_matrix(J, i, k).anticommutator(X[k - 1]) for k in range(1, 5) if k != i)
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

    @classmethod
    def build(cls, space: TruncatedSpace) -> "OperatorSet":
        J = build_J(space)
        H = build_H(space, J)
        h = build_h(space)
        X = build_X(space)
        a_plus, a_minus, K, L = build_ladder(space, X)
        P = build_P(space, J, X)
        v_plus, v_minus = build_V(space, X, P)
        generators = _assemble(space, J, K, L, h)
        ops = cls(
            space=space, J=J, X=X, P=P, H=H, h=h, K=K, L=L,
            a_plus=a_plus, a_minus=a_minus, v_plus=v_plus, v_minus=v_minus, generators=generators,
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


def _check_sign_convention(ops: "OperatorSet") -> None:
    # [A-_i, A+_j] = 2 h delta_ij - 2i J_ij on interior levels; the opposite
    # J sign cannot occur without breaking the rotation-subalgebra closure.
    # Both sides are real, and compared on levels below the top.
    if ops.space.n_max < 2:
        return
    top = ops.space.n_max - 1
    lhs, rhs = ops.a_minus[0].commutator(ops.a_plus[1]), -2j * ops.J[(1, 2)]
    if lhs.distance(rhs, top) / max(1.0, rhs.norm(top)) > 1e-8:
        raise RuntimeError(
            "ladder commutator does not match -2i J_12; operator conventions have drifted"
        )
