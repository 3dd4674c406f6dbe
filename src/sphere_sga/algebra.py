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


def gen(a: int, b: int) -> GeneratorIndex:
    return GeneratorIndex(a, b)


@dataclass(frozen=True)
class LinearCombo:
    """Finite linear combination of generators plus an identity term."""

    terms: tuple[tuple[GeneratorIndex, complex], ...]
    scalar: complex = 0j

    @classmethod
    def from_dict(cls, d: Mapping[GeneratorIndex, complex], scalar: complex = 0j) -> "LinearCombo":
        items = tuple(sorted(((k, v) for k, v in d.items() if v != 0), key=lambda kv: kv[0]))
        return cls(items, scalar)

    def as_dict(self) -> dict[GeneratorIndex, complex]:
        return dict(self.terms)


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
    """Normalize an operator mapping to operands keyed by (a, b), a < b.

    Operands share one shape (..., d, d): square matrices, or stacks of them
    that the tensors below treat elementwise over the leading axes.  Arrays
    are cast to one common type, float or complex, without a copy where an
    operand already has it.  An operand that opts out of numpy's ufuncs
    (``__array_ufunc__ = None``, as ``operators.OperatorRep`` does) brings its
    own arithmetic, ``identity``, ``zero`` and space, and is used as it is.
    Returns the table, the identity, and a function giving a new zero.
    """
    raw: list[tuple[int, int, object]] = []
    for key, val in ops.items():
        a, b = (key.a, key.b) if isinstance(key, GeneratorIndex) else key
        m = val if getattr(val, "__array_ufunc__", 0) is None else np.asarray(val)
        if len(m.shape) < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"operator for M{a}{b} is not a square matrix")
        if raw and (m.shape != raw[0][2].shape or type(m) is not type(raw[0][2])):
            raise ValueError("operators do not share a common shape and type")
        raw.append((a, b, m))
    first = raw[0][2]
    if isinstance(first, np.ndarray):
        dtype = np.result_type(float, *{m.dtype for _, _, m in raw})
        raw = [(a, b, m.astype(dtype, copy=False)) for a, b, m in raw]
        eye, zeros = np.eye(first.shape[-1], dtype=dtype), partial(np.zeros, first.shape, dtype)
    else:
        eye, zeros = type(first).identity(first.space), partial(type(first).zero, first.space)
    table: dict[tuple[int, int], object] = {}
    for a, b, m in raw:
        if a > b:
            a, b, m = b, a, -m
        table[(a, b)] = m
    missing = [g for g in GENERATORS if (g.a, g.b) not in table]
    if missing:
        raise ValueError(f"missing generators: {missing}")
    return table, eye, zeros


def full_matrix(table: Mapping[tuple[int, int], np.ndarray], a: int, b: int) -> np.ndarray:
    """Matrix of M_ab for any index order (antisymmetric extension).

    The entries of a table share one shape and type, so the zero of a == b
    takes them from any entry.
    """
    if a == b:
        some = next(iter(table.values()))
        return np.zeros_like(some) if isinstance(some, np.ndarray) else 0 * some
    if a < b:
        return table[(a, b)]
    return -table[(b, a)]


def tensor_T(ops: Mapping, c: float = 2.0) -> dict[tuple[int, int], np.ndarray]:
    """Symmetric restrictive tensor with constant shift.

    T~_ab = sum_d g^dd (M_ad M_bd + M_bd M_ad) + c g_ab.  Returns all 36
    components keyed (a, b); symmetric entries share the same array.
    """
    table, eye, zeros = _matrix_table(ops)
    out: dict[tuple[int, int], np.ndarray] = {}
    for a in range(1, 7):
        for b in range(a, 7):
            acc = zeros()
            for d in range(1, 7):
                if d == a or d == b:
                    continue
                left = full_matrix(table, a, d)
                right = full_matrix(table, b, d)
                acc += metric(d, d) * (left @ right + right @ left)
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


def _pair_partitions(rest: tuple[int, ...]):
    """The three splittings of four indices into two ordered pairs (c,d),(e,f)."""
    c = rest[0]
    others = rest[1:]
    for k in range(3):
        d = others[k]
        e, f = (others[m] for m in range(3) if m != k)
        yield (c, d, e, f)


def tensor_R(ops: Mapping) -> dict[tuple[int, int], np.ndarray]:
    """Antisymmetric restrictive tensor.

    R^ab = sum over c,d,e,f of eps^abcdef (M_cd M_ef + M_ef M_cd) with
    eps^123456 = +1.  Each unordered pair splitting contributes eight equal
    arrangements, so the sum collapses to three terms per component.
    Returns all 36 components keyed (a, b).
    """
    table, _, zeros = _matrix_table(ops)
    zero = zeros()
    out: dict[tuple[int, int], np.ndarray] = {}
    for a in range(1, 7):
        out[(a, a)] = zero
        for b in range(a + 1, 7):
            rest = tuple(x for x in range(1, 7) if x not in (a, b))
            acc = zeros()
            for (c, d, e, f) in _pair_partitions(rest):
                sign = epsilon_sign((a, b, c, d, e, f))
                first = full_matrix(table, c, d)
                second = full_matrix(table, e, f)
                acc += (8 * sign) * (first @ second + second @ first)
            out[(a, b)] = acc
            out[(b, a)] = -acc
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
