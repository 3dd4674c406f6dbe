"""Abstract structure of the conformal-type algebra so(4,2).

Generators are labelled by antisymmetric index pairs M_ab, 1 <= a < b <= 6,
with the flat metric diag(1,1,1,1,-1,-1).  This module holds the structure
constants (quantum commutators and classical brackets), the Jacobi-identity
checker, the two invariant "restrictive" tensors evaluated on arbitrary
operator collections, and the 6x6 defining matrix representation used as an
exact cross-check.

Structure constants are kept in exact integer arithmetic; floating point
enters only when tensors are contracted against concrete matrices.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Literal, Mapping

import numpy as np

Mode = Literal["quantum", "classical"]

METRIC_DIAG: tuple[int, ...] = (1, 1, 1, 1, -1, -1)


def metric(a: int, b: int) -> int:
    """Metric component g_ab for 1-based indices."""
    return METRIC_DIAG[a - 1] if a == b else 0


@dataclass(frozen=True, order=True)
class GeneratorIndex:
    """Canonical label (a, b) with 1 <= a < b <= 6 for the generator M_ab."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (1 <= self.a < self.b <= 6):
            raise ValueError(f"generator index must satisfy 1 <= a < b <= 6, got ({self.a}, {self.b})")

    def __repr__(self) -> str:
        return f"M{self.a}{self.b}"


GENERATORS: tuple[GeneratorIndex, ...] = tuple(
    GeneratorIndex(a, b) for a, b in combinations(range(1, 7), 2)
)


@dataclass(frozen=True)
class LinearCombo:
    """Finite linear combination of generators (so(4,2) has no central term)."""

    terms: tuple[tuple[GeneratorIndex, complex], ...]

    @classmethod
    def from_dict(cls, d: Mapping[GeneratorIndex, complex]) -> "LinearCombo":
        items = tuple(sorted(((k, v) for k, v in d.items() if v != 0), key=lambda kv: kv[0]))
        return cls(items)


def _accumulate(acc: dict, x: int, y: int, coeff: int) -> None:
    # absorb antisymmetry: M_yx = -M_xy, M_xx = 0
    if x == y or coeff == 0:
        return
    if x > y:
        x, y, coeff = y, x, -coeff
    acc[GeneratorIndex(x, y)] += coeff


def commutator_rhs(ab: GeneratorIndex, cd: GeneratorIndex, mode: Mode = "quantum") -> LinearCombo:
    """Right-hand side of the bracket of two generators.

    Quantum mode: [M_ab, M_cd] = -i(g_ad M_bc + g_bc M_ad - g_ac M_bd - g_bd M_ac).
    Classical mode drops the factor -i (Dirac-bracket convention).
    """
    a, b = ab.a, ab.b
    c, d = cd.a, cd.b
    acc: dict[GeneratorIndex, int] = defaultdict(int)
    _accumulate(acc, b, c, metric(a, d))
    _accumulate(acc, a, d, metric(b, c))
    _accumulate(acc, b, d, -metric(a, c))
    _accumulate(acc, a, c, -metric(b, d))
    factor: complex = -1j if mode == "quantum" else 1
    return LinearCombo.from_dict({k: factor * v for k, v in acc.items() if v != 0})


def _bracket_combo(combo: LinearCombo, c: GeneratorIndex, mode: Mode) -> LinearCombo:
    """Bracket of a linear combination with a single generator, by linearity."""
    acc: dict[GeneratorIndex, complex] = defaultdict(complex)
    for idx, coeff in combo.terms:
        inner = commutator_rhs(idx, c, mode)
        for jdx, cf in inner.terms:
            acc[jdx] += coeff * cf
    return LinearCombo.from_dict(acc)


def jacobi_residual(
    triples: Iterable[tuple[GeneratorIndex, GeneratorIndex, GeneratorIndex]] | None = None,
    mode: Mode = "quantum",
) -> float:
    """Max absolute coefficient of [[A,B],C] + [[B,C],A] + [[C,A],B] over triples.

    Exactly zero for a consistent structure-constant table (integer arithmetic,
    no rounding).  Defaults to all 455 unordered generator triples.
    """
    if triples is None:
        triples = combinations(GENERATORS, 3)
    worst = 0.0
    for (A, B, C) in triples:
        acc: dict[GeneratorIndex, complex] = defaultdict(complex)
        for first, second, third in ((A, B, C), (B, C, A), (C, A, B)):
            inner = commutator_rhs(first, second, mode)
            outer = _bracket_combo(inner, third, mode)
            for idx, coeff in outer.terms:
                acc[idx] += coeff
        residual = max((abs(v) for v in acc.values()), default=0.0)
        worst = max(worst, residual)
    return worst


# ---------------------------------------------------------------------------
# invariant tensors on concrete operator collections
# ---------------------------------------------------------------------------


def _matrix_table(ops: Mapping) -> tuple[dict[tuple[int, int], object], object, Callable[[], object]]:
    """Normalize an operator mapping keyed by ``GeneratorIndex`` to operands keyed by (a, b), a < b.

    Any other key raises ``ValueError``: the sign rule M_ba = -M_ab is
    ``signed_generator``'s alone.  Operands share one shape (..., d, d):
    square matrices, or stacks of them that the tensors below treat
    elementwise over the leading axes.  Arrays are cast to one common type,
    float or complex, without a copy where an operand already has it.  An
    operand that opts out of numpy's ufuncs (``__array_ufunc__ = None``, as
    ``operators.OperatorRep`` does) brings its own arithmetic, ``identity``,
    ``zero``, ``anticommutator`` and space, and is used as it is.
    Returns the table, the identity, and a function giving a new zero.
    """
    raw: list[tuple[GeneratorIndex, object]] = []
    for key, val in ops.items():
        if not isinstance(key, GeneratorIndex):
            raise ValueError(f"operator key {key!r} is not a GeneratorIndex")
        m = val if getattr(val, "__array_ufunc__", 0) is None else np.asarray(val)
        if len(m.shape) < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"operator for {key!r} is not a square matrix")
        if raw and (m.shape != raw[0][1].shape or type(m) is not type(raw[0][1])):
            raise ValueError("operators do not share a common shape and type")
        raw.append((key, m))
    missing = [g for g in GENERATORS if g not in ops]
    if missing:
        raise ValueError(f"missing generators: {missing}")
    first = raw[0][1]
    if isinstance(first, np.ndarray):
        dtype = np.result_type(float, *{m.dtype for _, m in raw})
        raw = [(g, m.astype(dtype, copy=False)) for g, m in raw]
        eye, zeros = np.eye(first.shape[-1], dtype=dtype), partial(np.zeros, first.shape, dtype)
    else:
        eye, zeros = type(first).identity(first.space), partial(type(first).zero, first.space)
    return {(g.a, g.b): m for g, m in raw}, eye, zeros


def signed_generator(table: Mapping[tuple[int, int], object], a: int, b: int) -> tuple[int, object]:
    """M_ab for a != b as (sign, stored operand), M_ab = sign * table[(min, max)]: the one place
    that applies M_ba = -M_ab, so that callers fold the sign into a scalar they already apply."""
    return (1, table[(a, b)]) if a < b else (-1, table[(b, a)])


def full_matrix(table: Mapping[tuple[int, int], np.ndarray], a: int, b: int) -> np.ndarray:
    """Matrix of M_ab for any index order (antisymmetric extension).

    The entries of a table share one shape and type, so the zero of a == b
    takes them from any entry.
    """
    if a == b:
        some = next(iter(table.values()))
        return np.zeros_like(some) if isinstance(some, np.ndarray) else 0 * some
    sign, m = signed_generator(table, a, b)
    return m if sign > 0 else -m


def _anticommutator(a, b):
    """a b + b a, formed by the operand's own ``anticommutator`` where it has one.

    Real stacks of 1x1 operands (scalar samples) take 2 (a b) + 0, bit for bit
    ``a @ b + b @ a``: a 1x1 matmul is 0 + a b, one rounding, a b equals b a,
    x + x equals 2 x, and adding +0 turns a product's -0 into the matmul's +0.
    Complex products may round differently in a matmul, so they take it.
    """
    own = getattr(a, "anticommutator", None)
    if own is not None:
        return own(b)
    if a.shape[-2:] == (1, 1) and a.dtype.kind == "f":
        return 2.0 * (a * b) + 0.0
    return a @ b + b @ a


def tensor_T(ops: Mapping, c: float = 2.0) -> dict[tuple[int, int], np.ndarray]:
    """Symmetric restrictive tensor with constant shift.

    T~_ab = sum_d g^dd (M_ad M_bd + M_bd M_ad) + c g_ab.  Returns all 36
    components keyed (a, b); symmetric entries share the same array.  The
    signs of M_ad and M_bd fold into g^dd.
    """
    table, eye, zeros = _matrix_table(ops)
    out: dict[tuple[int, int], np.ndarray] = {}
    for a in range(1, 7):
        for b in range(a, 7):
            acc = zeros()
            for d in range(1, 7):
                if d == a or d == b:
                    continue
                (s_ad, m_ad), (s_bd, m_bd) = signed_generator(table, a, d), signed_generator(table, b, d)
                acc += (s_ad * s_bd * metric(d, d)) * _anticommutator(m_ad, m_bd)
            if a == b:
                acc = acc + c * metric(a, b) * eye
            out[(a, b)] = acc
            out[(b, a)] = acc
    return out


def epsilon_sign(perm: tuple[int, ...]) -> int:
    """Sign of a permutation given as a tuple of distinct integers."""
    s = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def pair_partitions(rest: tuple[int, ...]):
    """The three splittings of four indices into two ordered pairs (c,d),(e,f);
    both pairs ascend when the indices do."""
    c = rest[0]
    others = rest[1:]
    for k in range(3):
        d = others[k]
        e, f = (others[m] for m in range(3) if m != k)
        yield (c, d, e, f)


def tensor_R(ops: Mapping, key: tuple[int, int] | None = None) -> dict[tuple[int, int], np.ndarray] | np.ndarray:
    """Antisymmetric restrictive tensor.

    R^ab = sum over c,d,e,f of eps^abcdef (M_cd M_ef + M_ef M_cd) with
    eps^123456 = +1.  Each unordered pair splitting contributes eight equal
    arrangements, so the sum collapses to three terms per component, each
    read from two stored generators (both splitting pairs are ascending).
    Returns the 15 components keyed (a, b) with a < b, and the six diagonal
    keys (a, a), which share one zero; the rest follow from R^ba = -R^ab.
    With ``key`` (a, b), any a and b in 1..6, returns that one component alone.
    """
    table, _, zeros = _matrix_table(ops)

    def component(a: int, b: int):
        acc = zeros()
        if a != b:
            rest = tuple(x for x in range(1, 7) if x not in (a, b))
            for (c, d, e, f) in pair_partitions(rest):
                sign = epsilon_sign((a, b, c, d, e, f))
                acc += (8 * sign) * _anticommutator(table[(c, d)], table[(e, f)])
        return acc

    if key is not None:
        if len(key) != 2 or not all(1 <= x <= 6 for x in key):
            raise ValueError(f"tensor key must be two indices in 1..6, got {key!r}")
        return component(*key)
    zero = zeros()
    out: dict[tuple[int, int], np.ndarray] = {}
    for a in range(1, 7):
        out[(a, a)] = zero
        for b in range(a + 1, 7):
            out[(a, b)] = component(a, b)
    return out


def defining_representation() -> dict[GeneratorIndex, np.ndarray]:
    """Exact 6x6 matrices (M_ab)_{mu,nu} = -i(delta_{a,mu} g_{b,nu} - delta_{b,mu} g_{a,nu}).

    Satisfies the quantum commutation relations exactly; the restrictive
    tensors do not vanish on it, which makes it a useful contrast to the
    harmonic-polynomial representation.
    """
    out = {}
    for g in GENERATORS:
        m = np.zeros((6, 6), dtype=complex)
        for nu in range(1, 7):
            m[g.a - 1, nu - 1] += -1j * metric(g.b, nu)
            m[g.b - 1, nu - 1] += 1j * metric(g.a, nu)
        out[g] = m
    return out
