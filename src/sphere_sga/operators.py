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

Each operator changes the level n by amounts of one parity, its ``shift``
(the Bander-Itzykson selection rule): J, h, H and the identity keep n (shift
0), X, K, L and P move it by one (shift 1), and a product has the xor of its
operands' shifts, so M_ab has shift [a >= 5] xor [b >= 5].  The real storage
is therefore two halves: ``parts[p]`` maps the levels of parity p to the levels
of parity p xor shift, rows and columns in level order within their parity, and
every other block is zero without being stored.  A product's half for source
parity p is ``A.parts[p ^ B.shift] @ B.parts[p]``; a sum of different shifts
raises, as a sum of different phases does.  The dense ``real`` and ``matrix``
are derived copies in natural level order, for the few dense readers.
``norm(top)`` is the Frobenius norm of the columns of levels <= top: in each
half they are a column prefix.  Every operator residual (see the verify
module) is a ratio of such norms.

Each operator also carries its level band (lo, hi): it maps level n into
levels n+lo..n+hi, and is exactly zero elsewhere.  J, h, H and the identity
keep the level (band (0, 0)), X, K and L move it by one (band (-1, 1)) and A+-
by exactly +-1 (bands (1, 1) and (-1, -1)); every other band follows from the
arithmetic, and a product multiplies only the blocks inside its operands' bands.

Each operator may carry its transpose parity tau (+1 or -1): ``real.T == tau *
real`` exactly.  J and L have -1; X, K, h, H and the identity +1; sums of
equal parities, scalars, negation and ``adjoint()`` keep it, and P, T~ and R
get it from ``anticommutator``.  For two operands with a parity, b a is
tau_a tau_b (a b)^T, so ``commutator`` and ``anticommutator`` form one banded
product Y and return Y -+ tau_a tau_b Y^T, exactly of parity -+tau_a tau_b;
any other pair takes both products.

The builders make their operators from level blocks through one constructor,
``OperatorRep.from_blocks``, which derives the band from the blocks it is given
and writes each transposed block from the same array, so the band and the
parity hold by construction and are not checked afterwards.

Each operator carries ``top``, the highest source level whose columns it is
asked for: n_max for the stored operators, lower for an operator viewed
through ``at(top)`` (the verify module hands each identity its operands at its
interior top).  The columns it holds are a column prefix of each half, read
from the halves' widths: every column, or those of levels <= some level.  A
product forms only the columns of levels <= its right operand's top, one slab
per source level <= top; a bracket of two operands that hold every column forms
its one product Y on the L region that Y -+ tau Y^T reads on those columns
(every row of them, and the rows of levels <= top of the other columns), and
any other bracket two column-limited products.  Sums, scalars and level vectors
work on the columns their operands hold.  A read of a column an operator does
not hold raises ``ValueError``, a product whose left operand is too narrow for
it included; ``adjoint``, ``real`` and ``matrix`` need every column.  No column
is filled with zeros in place of one that was not formed.

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
from .hilbert import TruncatedSpace, shift_map


class _Layout:
    """Where the levels 0..top sit in the bases of even and of odd levels."""

    def __init__(self, top: int):
        level = np.repeat(np.arange(top + 1), [(n + 1) ** 2 for n in range(top + 1)])
        self.index = tuple(np.flatnonzero(level % 2 == p) for p in (0, 1))  # natural index of each entry
        for array in self.index:
            array.flags.writeable = False  # shared by every caller
        self.dims = (len(self.index[0]), len(self.index[1]))
        starts, self.slices, self.prefixes = [0, 0], [], []
        for n in range(top + 1):
            self.slices.append(slice(starts[n % 2], starts[n % 2] + (n + 1) ** 2))  # in the basis of parity n % 2
            starts[n % 2] += (n + 1) ** 2
            self.prefixes.append(tuple(starts))  # the columns of levels <= n in each half


_layout = cache(_Layout)  # one layout per size


def _of_parity(lo: int, hi: int, parity: int) -> tuple[int, int]:
    """The first and the last level of the given parity in lo..hi."""
    return lo + (lo - parity) % 2, hi - (hi - parity) % 2


@cache
def _product_plan(n_max: int, a_band, b_band, a_shift: int, b_shift: int, top: int, l_shaped: bool) -> tuple:
    # per source parity, one (rows, inner, cols) slab per source level j <= top: B maps
    # j into levels k0..k1 of parity j + b_shift, and A maps those into t0..t1 of
    # parity j + a_shift + b_shift; each range is contiguous within its half.  With
    # l_shaped, each j > top adds its slab cut to the rows of levels <= top.  Each
    # half's slabs come with the columns they read of A's half and of B's
    s = _layout(n_max).slices
    (alo, ahi), (blo, bhi) = a_band, b_band
    slabs: tuple[list, list] = ([], [])
    a_cols, b_cols = [0, 0], [0, 0]
    for j in range(n_max + 1 if l_shaped else top + 1):
        k0, k1 = _of_parity(max(0, j + blo), min(n_max, j + bhi), j + b_shift)
        t0, t1 = _of_parity(max(0, k0 + alo), min(n_max if j <= top else top, k1 + ahi), j + a_shift + b_shift)
        if k0 <= k1 and t0 <= t1:
            slabs[j % 2].append((slice(s[t0].start, s[t1].stop), slice(s[k0].start, s[k1].stop), s[j]))
            a_cols[j % 2], b_cols[j % 2] = max(a_cols[j % 2], s[k1].stop), s[j].stop
    return tuple((tuple(x), a, b) for x, a, b in zip(slabs, a_cols, b_cols))


def _frobenius(x: np.ndarray) -> float:
    # np.linalg.norm's own sum, one ddot of the flattened array, without its checks; order "K"
    # keeps a transposed view's memory order, as np.linalg.norm does
    v = x.ravel(order="K")
    return math.sqrt(v.dot(v))


class OperatorRep:
    """Operator ``phase * real`` on a truncated space: phase 1 or 1j, ``real`` a real matrix
    stored as its two halves ``parts``.

    ``shift`` (0 or 1) is the parity of every level change: ``parts[p]`` maps the
    levels of parity p to those of parity p ^ shift, each in level order, and
    every other block of ``real`` is zero.  ``band`` is the structural level band
    (lo, hi): the operator maps level n into levels n+lo..n+hi, clipped to the
    space, and is exactly zero outside it.  ``parity`` is +1 or -1 if ``real.T ==
    parity * real`` exactly, else None.  ``top`` is the highest source level whose
    columns the operator is asked for (n_max unless lowered by ``at``); the halves
    hold every column, or the columns of levels <= some level, a column prefix of
    each half.  The zero operator has no phase, no storage, no shift, no band and
    no parity (all None) and holds every column; it adds to any operator.
    Operators are values: no operation writes to an operand's halves.
    ``from_blocks`` makes an operator from its level blocks, with the band and the
    parity built in; ``from_matrix`` from a dense matrix, with the full band.
    Supported: ``@`` (shifts xor, bands add, parity dropped, the right operand's
    top, formed on the columns of levels <= that top), ``+`` and ``-`` of equal
    phases and shifts (else ``ArithmeticError``; bands join, equal parities kept,
    the lower top, on the columns both operands hold), real or imaginary scalars
    (parity kept), level vectors by broadcasting (``d[:, None] * op * e`` is
    diag(d) op diag(e); parity dropped), the conjugate transpose ``adjoint()``
    (band (-hi, -lo), parity kept), ``commutator`` and ``anticommutator`` (the
    lower top).  A read of a column the halves do not hold raises ``ValueError``:
    ``norm``, ``distance`` or ``at`` above the held levels, a product whose
    operand is too narrow for the slabs it reads, and ``adjoint``, ``real`` and
    ``matrix`` of an operator that does not hold every column, or ``block`` from a
    source level it does not hold.  Nothing is zero-filled in its place.
    """

    __array_ufunc__ = None  # numpy hands ``array * op`` to __rmul__

    def __init__(
        self, space: TruncatedSpace, parts: tuple[np.ndarray, np.ndarray] | None, shift: int | None,
        phase: complex | None = 1, band: tuple[int, int] | None = None, parity: int | None = None,
        top: int | None = None,
    ):
        self.space, self.parts, self.shift, self.phase, self.band, self.parity = space, parts, shift, phase, band, parity
        self.top = space.n_max if top is None else top

    @classmethod
    def from_matrix(cls, space: TruncatedSpace, matrix: np.ndarray) -> "OperatorRep":
        """Public constructor from a dense matrix that is exactly real or exactly imaginary and
        changes levels by amounts of one parity, with the full band; a zero matrix gets shift 0."""
        m = np.asarray(matrix)
        if m.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {space.dim}")
        if not m.imag.any():
            real, phase = m.real, 1
        elif not m.real.any():
            real, phase = m.imag, 1j
        else:
            raise ValueError("matrix is neither real nor imaginary")
        index = _layout(space.n_max).index
        blocks = [[np.array(real[np.ix_(index[t], index[s])], dtype=float) for s in (0, 1)] for t in (0, 1)]
        odd = blocks[1][0].any() or blocks[0][1].any()
        if odd and (blocks[0][0].any() or blocks[1][1].any()):
            raise ValueError("matrix has both even- and odd-level-shift entries")
        shift = int(odd)
        return cls(space, (blocks[shift][0], blocks[1 ^ shift][1]), shift, phase, (-space.n_max, space.n_max))

    @classmethod
    def from_blocks(
        cls, space: TruncatedSpace, blocks: Mapping[tuple[int, int], np.ndarray], shift: int,
        phase: complex = 1, parity: int | None = None,
    ) -> "OperatorRep":
        """The operator ``phase * real`` whose real level blocks are ``blocks``, {(target, source):
        real block}, and zero elsewhere.  Every level change t - j of a key must have the parity
        of ``shift`` (else ``ValueError``); the band is the range of the level changes.  With a
        ``parity``, an off-diagonal block also writes its transposed block ``parity * b.T`` (give
        one block of each such pair), a diagonal block is stored as ``(b + parity * b.T) / 2``
        and the band is made symmetric, so ``real.T == parity * real`` exactly.  A map with no
        blocks has the band (-shift, shift) with a parity and (shift, shift) without."""
        layout = _layout(space.n_max)
        s = layout.slices
        parts = tuple(np.zeros((layout.dims[p ^ shift], layout.dims[p])) for p in (0, 1))
        for (t, j), b in blocks.items():
            if (t - j - shift) % 2:
                raise ValueError(f"a block from level {j} into level {t} does not move the level by shift {shift} mod 2")
            if parity is not None and t == j:
                b = (b + parity * b.T) / 2
            elif parity is not None:
                parts[t % 2][s[j], s[t]] = parity * b.T
            parts[j % 2][s[t], s[j]] = b
        steps = [t - j for t, j in blocks] or [shift]
        if parity is not None:
            steps += [-step for step in steps]
        return cls(space, parts, shift, phase, (min(steps), max(steps)), parity)

    @classmethod
    def zero(cls, space: TruncatedSpace) -> "OperatorRep":
        return cls(space, None, None, None)

    @classmethod
    def identity(cls, space: TruncatedSpace) -> "OperatorRep":
        blocks = {(n, n): np.eye((n + 1) ** 2) for n in range(space.n_max + 1)}
        return cls.from_blocks(space, blocks, 0, parity=1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.space.dim, self.space.dim)

    @property
    def _full(self) -> bool:
        """Whether the halves hold every column."""
        return self.phase is None or self.parts[0].shape[1] + self.parts[1].shape[1] == self.space.dim

    def _prefix(self, top: int, what: str) -> tuple[int, int]:
        """The widths of the columns of levels <= ``top`` (>= 0) in each half of a nonzero operator,
        which ``what`` reads; raises ``ValueError`` if the halves do not hold them."""
        prefixes = _layout(self.space.n_max).prefixes
        prefix, w0, w1 = prefixes[min(top, self.space.n_max)], self.parts[0].shape[1], self.parts[1].shape[1]
        if w0 < prefix[0] or w1 < prefix[1]:
            held = max((n for n, (c0, c1) in enumerate(prefixes) if c0 <= w0 and c1 <= w1), default=-1)
            raise ValueError(f"{what} reads the columns of levels <= {top}; the operator holds those of levels <= {held}")
        return prefix

    def at(self, top: int) -> "OperatorRep":
        """This operator asked for the columns of levels <= ``top`` (at most n_max): the same
        halves, shared.  Raises ``ValueError`` if they do not hold those columns."""
        if top < 0:
            raise ValueError(f"an operator is asked for the columns of levels <= {top}; top must be >= 0")
        top = min(top, self.space.n_max)
        if top == self.top:
            return self
        if self.phase is None:
            return OperatorRep(self.space, None, None, None, top=top)
        self._prefix(top, "at")
        return OperatorRep(self.space, self.parts, self.shift, self.phase, self.band, self.parity, top)

    @property
    def real(self) -> np.ndarray:
        """Dense real matrix in natural level order, a new read-only array on every access."""
        m = np.zeros(self.shape)
        if self.phase is not None:
            self._prefix(self.space.n_max, "real")
            index = _layout(self.space.n_max).index
            for p, part in enumerate(self.parts):
                m[np.ix_(index[p ^ self.shift], index[p])] = part
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
        """The real block from level ``source`` into level ``target``: a view of a half, or a
        new zero block where the shift rules the pair out."""
        s = _layout(self.space.n_max).slices
        if self.phase is not None:
            self._prefix(source, "block")
        if self.phase is None or (target - source - self.shift) % 2:
            return np.zeros(((target + 1) ** 2, (source + 1) ** 2))
        return self.parts[source % 2][s[target], s[source]]

    def norm(self, top: int) -> float:
        """Frobenius norm of the columns of levels <= ``top``, a column prefix of each half; 0.0
        for ``top < 0`` or the zero operator, every column for ``top >= n_max``."""
        if self.phase is None or top < 0:
            return 0.0
        prefix = self._prefix(top, "norm")
        return math.hypot(*(_frobenius(x[:, :cols]) for x, cols in zip(self.parts, prefix)))

    def distance(self, other: "OperatorRep", top: int) -> float:
        """``(self - other).norm(top)``, with the halves subtracted on the columns of levels
        <= ``top`` only.  Different phases or shifts raise ``ArithmeticError``, as ``-`` does."""
        if self.phase is None or other.phase is None:  # |R - 0| = |0 - R| = |R|
            return (other if self.phase is None else self).norm(top)
        self._check_summable(other)
        if top < 0:
            return 0.0
        prefix = self._prefix(top, "distance")
        other._prefix(top, "distance")
        pairs = zip(self.parts, other.parts, prefix)
        return math.hypot(*(_frobenius(np.subtract(x[:, :cols], y[:, :cols])) for x, y, cols in pairs))

    def _like(self, parts, phase: complex, parity: int | None) -> "OperatorRep":
        """A new operator with this one's shift, band and top."""
        return OperatorRep(self.space, tuple(parts), self.shift, phase, self.band, parity, self.top)

    def adjoint(self) -> "OperatorRep":
        """Conjugate transpose: (i R)^dagger = i (-R^T); the band reverses, the parity and top stay.
        The transpose's half for source parity p is the transpose of the half for p ^ shift."""
        if self.phase is None:
            return self
        self._prefix(self.space.n_max, "adjoint")
        lo, hi = self.band
        flipped = (self.parts[self.shift].T, self.parts[1 ^ self.shift].T)
        parts = flipped if self.phase == 1 else tuple(-part for part in flipped)
        return OperatorRep(self.space, parts, self.shift, self.phase, (-hi, -lo), self.parity, self.top)

    def _product(self, other: "OperatorRep", top: int, l_shaped: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The real halves of ``self @ other``, phases left out, on the columns of levels <= ``top``:
        one product per source level, over the slabs of _product_plan.  ``l_shaped`` forms the
        L region instead, every column with those of levels > top in the rows of levels <= top
        only: their other rows are left zero, so such halves are only for ``_bracket``."""
        n_max = self.space.n_max
        layout, shift = _layout(n_max), self.shift ^ other.shift
        widths = layout.dims if l_shaped else layout.prefixes[top]
        plan = _product_plan(n_max, self.band, other.band, self.shift, other.shift, top, l_shaped)
        parts = []
        for p, (slabs, a_cols, b_cols) in enumerate(plan):
            a, b = self.parts[p ^ other.shift], other.parts[p]
            if a.shape[1] < a_cols or b.shape[1] < b_cols:
                side = "left" if a.shape[1] < a_cols else "right"
                raise ValueError(f"a product reads columns its {side} operand does not hold")
            product = np.zeros((layout.dims[p ^ shift], widths[p]))
            for rows, inner, cols in slabs:
                np.matmul(a[rows, inner], b[inner, cols], out=product[rows, cols])
            parts.append(product)
        return tuple(parts)

    def _as_product(self, other: "OperatorRep", parts, top: int) -> "OperatorRep":
        # the operator self @ other from the halves _product formed: i * i = -1 is negated in place
        n_max = self.space.n_max
        (alo, ahi), (blo, bhi) = self.band, other.band
        band = (max(-n_max, min(n_max, alo + blo)), max(-n_max, min(n_max, ahi + bhi)))
        shift = self.shift ^ other.shift
        if self.phase == other.phase == 1j:
            return OperatorRep(self.space, tuple(np.negative(x, out=x) for x in parts), shift, 1, band, top=top)
        return OperatorRep(self.space, parts, shift, self.phase * other.phase, band, top=top)

    def __matmul__(self, other: "OperatorRep") -> "OperatorRep":
        if not isinstance(other, OperatorRep):
            return NotImplemented
        if self.phase is None or other.phase is None:
            return OperatorRep.zero(self.space)
        return self._as_product(other, self._product(other, other.top), other.top)

    def _check_summable(self, other: "OperatorRep") -> None:
        if other.phase != self.phase:
            raise ArithmeticError(f"sum of operators of phases {self.phase} and {other.phase}")
        if other.shift != self.shift:
            raise ArithmeticError(f"sum of operators of level shifts {self.shift} and {other.shift} mod 2")

    def _sum(self, other, sign: int) -> "OperatorRep":
        if isinstance(other, (int, float)) and other == 0:  # sum() starts from 0
            return self
        if not isinstance(other, OperatorRep):
            return NotImplemented
        if other.phase is None:
            return self
        if self.phase is None:
            return other if sign > 0 else -other
        self._check_summable(other)
        op = np.add if sign > 0 else np.subtract
        band = (min(self.band[0], other.band[0]), max(self.band[1], other.band[1]))
        parity = self.parity if self.parity == other.parity else None
        (x0, x1), (y0, y1) = self.parts, other.parts
        w0, w1 = min(x0.shape[1], y0.shape[1]), min(x1.shape[1], y1.shape[1])  # the columns both hold
        parts = (op(x0[:, :w0], y0[:, :w0]), op(x1[:, :w1], y1[:, :w1]))
        return OperatorRep(self.space, parts, self.shift, self.phase, band, parity, min(self.top, other.top))

    def _bracket(self, other: "OperatorRep", sign: int) -> "OperatorRep":
        # a b + sign * b a on the columns of levels <= top, the lower of the two tops.
        # With both parities, b a = tau (a b)^T for tau = tau_a tau_b, so one product Y
        # gives Y + sign tau Y^T, exactly of parity sign tau.  Its columns <= top read
        # Y's L region: every row of those columns and the rows <= top of the others,
        # which needs every column of both operands.  Y is formed with the narrower
        # band on the right, [a, b] = -[b, a]
        n_max, top = self.space.n_max, min(self.top, other.top)
        if self.parity is None or other.parity is None or not (self._full and other._full):
            a, b = self.at(top), other.at(top)
            return a @ b + b @ a if sign > 0 else a @ b - b @ a
        swap = other.band[1] - other.band[0] > self.band[1] - self.band[0]
        left, right = (other, self) if swap else (self, other)
        y = left._as_product(right, left._product(right, top, l_shaped=True), top)  # only its L region is formed
        parity = sign * self.parity * other.parity
        op = np.add if parity > 0 else np.subtract
        cols = _layout(n_max).prefixes[top]
        parts = tuple(op(y.parts[p][:, : cols[p]], y.parts[p ^ y.shift][: cols[p]].T) for p in (0, 1))
        if swap and sign < 0:
            parts = tuple(np.negative(x, out=x) for x in parts)
        lo, hi = y.band
        return OperatorRep(self.space, parts, y.shift, y.phase, (min(lo, -hi), max(hi, -lo)), parity, top)

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
        return self if self.phase is None else self._like((-x for x in self.parts), self.phase, self.parity)

    def __mul__(self, factor) -> "OperatorRep":
        if isinstance(factor, OperatorRep):
            return NotImplemented  # operator products are written with @
        if isinstance(factor, np.ndarray):  # a level vector, as a row (dim,) or as a column (dim, 1)
            if np.iscomplexobj(factor):
                raise TypeError("a level vector multiplying an operator must be real")
            if self.phase is None:
                return self
            index, column = _layout(self.space.n_max).index, factor.ndim == 2
            parts = (
                x * factor[index[p ^ self.shift] if column else index[p][: x.shape[1]]] for p, x in enumerate(self.parts)
            )
            return self._like(parts, self.phase, None)
        s = complex(factor)
        if s == 0 or self.phase is None:
            return OperatorRep.zero(self.space)
        if s.imag == 0:
            return self._like((s.real * x for x in self.parts), self.phase, self.parity)
        if s.real == 0:  # i * (i R) = -R
            if self.phase == 1:
                return self._like((s.imag * x for x in self.parts), 1j, self.parity)
            return self._like((-s.imag * x for x in self.parts), 1, self.parity)
        raise ArithmeticError(f"scalar {factor!r} is neither real nor imaginary")

    __rmul__ = __mul__


def level_vector(space: TruncatedSpace, fn) -> np.ndarray:
    """fn(n) at every basis index of level n: a function of h, which acts per level.

    Multiplying by it broadcasts: ``d[:, None] * M * e`` is diag(d) M diag(e).
    """
    levels = range(space.n_max + 1)
    return np.repeat([fn(n) for n in levels], [space.level_dim(n) for n in levels])


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _step(up: int, down: int | None = None) -> tuple[int, ...]:
    """The exponent change e_up - e_down of variables 1..4, or e_up alone without ``down``."""
    return tuple(int(k == up) - int(k == down) for k in range(1, 5))


def build_J(space: TruncatedSpace) -> dict[tuple[int, int], OperatorRep]:
    """Angular momentum operators J_ij = -i(x_i d_j - x_j d_i), i < j in 1..4.

    Level preserving and Hermitian; they close the rotation subalgebra.  The
    overall sign is the unique one compatible with the commutation relations
    (verified at assembly time against the ladder commutator).  On a level, x_j d_i
    compresses to the transpose of x_i d_j's compression (x_i and d_i are adjoint
    in the Fischer product, a multiple of the sphere's), so each block is a - a^T,
    a = b^T G (x_i d_j b): one shift map per pair, exactly antisymmetric.
    """
    blocks = {(i, j): {} for i in range(1, 5) for j in range(i + 1, 5)}
    for n in range(space.n_max + 1):
        b = space.basis_matrix(n)
        dual = b.T @ space.gram_matrix(n, n)
        for (i, j), level in blocks.items():
            a = dual @ shift_map(n, _step(i, j), j, b)
            level[(n, n)] = a - a.T
    # popped, so that each operator's blocks are freed as soon as it is formed
    return {pair: -1j * OperatorRep.from_blocks(space, blocks.pop(pair), 0, parity=-1) for pair in list(blocks)}


def build_X(space: TruncatedSpace) -> list[OperatorRep]:
    """Position operators: multiplication by x_i projected back onto the space.

    Couples level n to n+-1 only; the up block is b^T G (x_i b), x_i b placed by
    ``shift_map``.  The down blocks are their transposes: X_i is exactly Hermitian.
    """
    up: list[dict] = [{} for _ in range(4)]
    for n in range(space.n_max):
        dual = space.basis_matrix(n + 1).T @ space.gram_matrix(n + 1, n + 1)
        for i in range(1, 5):
            up[i - 1][(n + 1, n)] = dual @ shift_map(n, _step(i), None, space.basis_matrix(n))
    return [OperatorRep.from_blocks(space, blocks, 1, parity=1) for blocks in up]


def build_H(space: TruncatedSpace, J: Mapping[tuple[int, int], OperatorRep]) -> OperatorRep:
    """Hamiltonian H = (1/2) J_ij J_ij (sum over both indices), each level block stored
    symmetrized, (b + b^T) / 2, so that H is exactly symmetric."""
    acc = sum(rep @ rep for rep in J.values())
    return OperatorRep.from_blocks(space, {(n, n): acc.block(n, n) for n in range(space.n_max + 1)}, 0, parity=1)


def build_h(space: TruncatedSpace) -> OperatorRep:
    """Level operator h, n + 1 on level n, so that h^2 = H + 1 (the ``spectrum`` check's identity)."""
    blocks = {(n, n): (n + 1.0) * np.eye((n + 1) ** 2) for n in range(space.n_max + 1)}
    return OperatorRep.from_blocks(space, blocks, 0, parity=1)


def build_ladder(
    space: TruncatedSpace, X: list[OperatorRep]
) -> tuple[list[OperatorRep], list[OperatorRep], list[OperatorRep], list[OperatorRep]]:
    """Ladder operators and the boost pair: (A_plus, A_minus, K, L).

    K_i = sqrt(h) X_i sqrt(h); L_i = -i [K_i, h]; A+-_i = K_i -+ i L_i.
    K's raising blocks, level n -> n+1, are sqrt(n+2) X_i sqrt(n+1), and its
    lowering ones their transposes, so K is exactly symmetric.  h is n + 1 on
    level n, so L_i = i (K_i up - K_i down), exactly antisymmetric; A+_i = 2 K_i up
    (band (1, 1)), and A-_i = (A+_i)^dagger = 2 K_i down is stored as its transpose.
    """
    k_ops, l_ops, a_plus = [], [], []
    for x in X:
        up = {(n + 1, n): math.sqrt(n + 2.0) * x.block(n + 1, n) * math.sqrt(n + 1.0) for n in range(space.n_max)}
        k_ops.append(OperatorRep.from_blocks(space, up, 1, parity=1))
        l_ops.append(OperatorRep.from_blocks(space, up, 1, 1j, parity=-1))
        a_plus.append(OperatorRep.from_blocks(space, {key: 2.0 * b for key, b in up.items()}, 1))
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
