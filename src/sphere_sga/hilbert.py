"""Harmonic-polynomial Hilbert space on the three-sphere.

Vectors are homogeneous polynomials in four real variables.  Degree-n
harmonics (Laplacian kernel) restricted to the unit sphere span the
(n+1)^2-dimensional energy level n(n+2); levels 0..N with an orthonormal
basis per level form the truncated representation space.

The harmonic basis is exact and needs no elimination: one int64 matrix per
level, monomials by elements, whose column for the head x1^a y^beta, a in
{0, 1}, is the Cauchy-Kovalevskaya series along x1 written in integers.
Scaled by (2K+a)!, K = |beta| // 2, its coefficient of x1^(2k+a) y^(beta-2j),
j2 + j3 + j4 = k, is
(-1)^k (2K+a)!/(2k+a)! * k!/(j2! j3! j4!) * prod_i beta_i!/(beta_i-2j_i)!,
and no two (k, j) share a monomial.  The terms of every column are made
together from two small tables of exact Python ints; the conversion to int64
raises on overflow instead of wrapping.  A column's polynomial is derived
from the column when asked for.

Sphere integrals of monomials are rational multiples of pi^2: with all
e_i = 2k_i and K = k1 + .. + k4 the coefficient is
2 prod_i((2k_i)!/k_i!) / (4^K (K+1)!), and 0 if any exponent is odd.  A Gram
matrix gathers only its nonzero entries, one int / int true division each,
correctly rounded as float(Fraction) is.

Orthonormalization is symmetric (Loewdin) and works one exponent-parity
class at a time: a column of the exact basis lies in the class of its head,
and monomials of different classes are orthogonal, so each level's overlap
is block-diagonal over its eight classes.  A class block has C(M+2, 2)
columns over C(M+3, 3) monomials; the blocks of one size from all levels
are orthonormalized in one stack, and every entry outside a column's class
is exactly 0.

The truncated space stores one float basis matrix per level and nothing
derived from it: the polynomial form of a vector or of a basis element is
computed from the matrix columns on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from numbers import Number
from typing import Iterable, Mapping, Sequence

import numpy as np

from .report import json_value

Exponents = tuple[int, int, int, int]

GRAM_TOLERANCE = 1e-12


class Polynomial4:
    """Sparse homogeneous polynomial in four variables.

    Coefficients may be ints, Fractions, floats or complex numbers; arithmetic
    is carried out in whatever ring the coefficients live in.  The zero
    polynomial is the empty coefficient map.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Exponents, Number] | None = None):
        clean: dict[Exponents, Number] = {}
        degree = None
        for expts, c in (coeffs or {}).items():
            expts = tuple(int(e) for e in expts)
            if len(expts) != 4 or any(e < 0 for e in expts):
                raise ValueError(f"bad multi-index {expts}")
            if c == 0:
                continue
            d = sum(expts)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError("polynomial is not homogeneous")
            clean[expts] = clean.get(expts, 0) + c
        self._coeffs = {k: v for k, v in clean.items() if v != 0}

    # -- basic protocol ----------------------------------------------------

    @property
    def coeffs(self) -> dict[Exponents, Number]:
        return dict(self._coeffs)

    @property
    def degree(self) -> int:
        """Degree of the homogeneous polynomial; -1 for the zero polynomial."""
        if not self._coeffs:
            return -1
        return sum(next(iter(self._coeffs)))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __iter__(self):
        return iter(self._coeffs.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial4) and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial4(0)"
        parts = []
        for expts, c in sorted(self._coeffs.items(), reverse=True)[:6]:
            mono = "".join(f"x{i+1}^{e}" if e > 1 else (f"x{i+1}" if e == 1 else "") for i, e in enumerate(expts))
            parts.append(f"{c}*{mono or '1'}")
        tail = " + ..." if len(self._coeffs) > 6 else ""
        return "Polynomial4(" + " + ".join(parts) + tail + ")"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial4") -> "Polynomial4":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        acc = dict(self._coeffs)
        for k, v in other._coeffs.items():
            acc[k] = acc.get(k, 0) + v
        return Polynomial4(acc)

    def __radd__(self, other):
        # lets sum() over polynomials start from 0
        if other == 0:
            return self
        return NotImplemented

    def __sub__(self, other: "Polynomial4") -> "Polynomial4":
        return self + (-1) * other

    def __neg__(self) -> "Polynomial4":
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, Polynomial4):
            acc: dict[Exponents, Number] = {}
            for ka, va in self._coeffs.items():
                for kb, vb in other._coeffs.items():
                    key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2], ka[3] + kb[3])
                    acc[key] = acc.get(key, 0) + va * vb
            return Polynomial4(acc)
        return Polynomial4({k: v * other for k, v in self._coeffs.items()})

    __rmul__ = __mul__

    def conjugate(self) -> "Polynomial4":
        return Polynomial4({k: _conj(v) for k, v in self._coeffs.items()})

    def __call__(self, point: Iterable[float]) -> complex:
        x = tuple(point)
        total = 0
        for expts, c in self._coeffs.items():
            term = c
            for xi, e in zip(x, expts):
                term = term * xi**e
            total += term
        return total

    def coeff_norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self._coeffs.values()))

    def to_json_terms(self) -> list[dict]:
        terms = []
        for expts, c in sorted(self._coeffs.items(), reverse=True):
            cc = complex(c)
            terms.append({"exponents": list(expts), "re": cc.real, "im": cc.imag})
        return terms

    def to_json(self) -> str:
        """The terms as a JSON array, one ``report.json_value`` term per line."""
        return "[\n" + ",\n".join(json_value(t) for t in self.to_json_terms()) + "\n]"


def _conj(v):
    return v.conjugate() if hasattr(v, "conjugate") else v


def monomial(expts: Exponents, coeff: Number = 1) -> Polynomial4:
    return Polynomial4({tuple(expts): coeff})


@lru_cache(maxsize=None)
def _monomial_tuple(degree: int) -> tuple[Exponents, ...]:
    return tuple(
        (a, b, c, degree - a - b - c)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
        for c in range(degree - a - b, -1, -1)
    )


def monomials(degree: int) -> list[Exponents]:
    """All degree-d multi-indices, descending lexicographic (x1-major first)."""
    return list(_monomial_tuple(degree))


@lru_cache(maxsize=None)
def _exponent_array(degree: int) -> np.ndarray:
    """``monomials(degree)`` as a read-only (count, 4) integer array."""
    array = np.array(_monomial_tuple(degree), dtype=np.int64).reshape(-1, 4)
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _parity_classes(degree: int) -> np.ndarray:
    """The exponent-parity class of each of ``monomials(degree)``: x1 the bit 8 .. x4 the bit 1; read-only."""
    classes = (_exponent_array(degree) % 2) @ np.array([8, 4, 2, 1])
    classes.flags.writeable = False
    return classes


def _column_classes(degree: int) -> np.ndarray:
    """The class of each column of ``harmonic_basis(degree)``: its head's, among the last (d + 1)^2 monomials."""
    return _parity_classes(degree)[-(degree + 1) ** 2:]


@lru_cache(maxsize=None)
def _key_weights(degree: int) -> np.ndarray:
    """Weights (d+1)^(3..0) of the linear exponent key e @ w: additive in the exponents, and over
    ``monomials(d)`` one-to-one and strictly descending in their order."""
    w = (degree + 1) ** np.arange(3, -1, -1)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _ascending_keys(degree: int) -> np.ndarray:
    keys = (_exponent_array(degree) @ _key_weights(degree))[::-1]  # monomials order reversed
    keys.flags.writeable = False
    return keys


def shift_map(degree: int, steps: Sequence[Exponents], ks: Sequence[int | None], vectors: np.ndarray) -> np.ndarray:
    """The images of ``vectors`` (rows over monomials(degree)) under x^e -> e_k x^(e + delta), one
    per (delta, k) of ``steps`` and ``ks``, stacked: (len(steps), monomials(target), columns).

    ``k`` is 1..4, or None for the coefficient 1: x_i d_j is the step (e_i - e_j, j) and
    multiplication by x_i the step (e_i, None).  All steps change the degree alike.  A step may
    lower only the exponent of x_k, so a source whose image would have a negative exponent has
    e_k = 0 and drops out, into a spare row that is sliced off.  The image's key under
    ``_key_weights`` is the source's plus delta's; distinct sources have distinct images, so
    each image row is one source row times e_k: the bytes of a product with the map's matrix,
    which is its image of an int identity.
    """
    shifts = np.array(steps, dtype=np.int64).reshape(-1, 4)
    for shift, k in zip(shifts.tolist(), ks, strict=True):  # one k per step
        if any(x < -(i == k) for i, x in enumerate(shift, 1)):
            raise ValueError(f"shift {tuple(shift)} lowers an exponent other than one of x_k, k = {k}")
    changes = set(shifts.sum(1).tolist())
    if len(changes) > 1:
        raise ValueError(f"steps change the degree by different amounts {sorted(changes)}")
    source, target = _exponent_array(degree), degree + changes.pop()
    w, ascending = _key_weights(target), _ascending_keys(target)
    coeffs = np.array([np.ones(len(source), dtype=np.int64) if k is None else source[:, k - 1] for k in ks])
    rows = len(ascending) - 1 - np.searchsorted(ascending, source @ w + (shifts @ w)[:, None])
    rows[coeffs == 0] = len(ascending)  # the spare row
    out = np.zeros((len(shifts), len(ascending) + 1, vectors.shape[1]), dtype=vectors.dtype)
    scale = np.zeros(out.shape[:2], dtype=np.int64)
    place = np.arange(len(shifts))[:, None], rows
    out[place], scale[place] = vectors, coeffs
    out *= scale[..., None]  # in place: each placed row times its e_k
    return out[:, :-1]


def laplacian(p: Polynomial4) -> Polynomial4:
    """Four-variable Laplacian; exact whenever the coefficients are exact."""
    acc: dict[Exponents, Number] = {}
    for expts, c in p:
        for j in range(4):
            if expts[j] >= 2:
                t = list(expts)
                t[j] -= 2
                key = tuple(t)
                acc[key] = acc.get(key, 0) + c * expts[j] * (expts[j] - 1)
    return Polynomial4(acc)


# ---------------------------------------------------------------------------
# sphere integrals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _central_ratio(k: int) -> int:
    # (2k)! / k!, which is 4^k Gamma(k + 1/2) / sqrt(pi)
    return math.factorial(2 * k) // math.factorial(k)


def _integral_ratio(halves: Exponents) -> tuple[int, int]:
    """Numerator and denominator of the integral of x^(2 k) over the unit
    three-sphere in units of pi^2, for the exponent halves k = (k1, .., k4):
    2 prod_i((2 k_i)! / k_i!) / (4^K (K + 1)!) with K = k1 + .. + k4."""
    return _integral_numerator(halves), _integral_denominator(sum(halves))


def _integral_numerator(halves: Exponents) -> int:
    # 2 prod_i (2 k_i)! / k_i!, the numerator of _integral_ratio
    num = 2
    for k in halves:
        num *= _central_ratio(k)
    return num


def _integral_denominator(total: int) -> int:
    # 4^K (K + 1)!, the denominator of _integral_ratio: one per degree 2K
    return 4**total * math.factorial(total + 1)


@lru_cache(maxsize=None)
def monomial_integral_coefficient(expts: Exponents) -> Fraction:
    """Integral of x^expts over the unit three-sphere, in units of pi^2.

    Zero unless every exponent is even; otherwise
    2 Gamma(b1)..Gamma(b4) / Gamma(b1+..+b4) with b_i = (a_i + 1)/2, which
    ``_integral_ratio`` gives in closed form.
    """
    if any(a % 2 for a in expts):
        return Fraction(0)
    return Fraction(*_integral_ratio(tuple(a // 2 for a in expts)))


def _even_integrals(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero float integral coefficients of the monomials of an even degree d, and their
    linear keys e @ ``_key_weights(d)`` in ascending order.

    Only exponents with every entry even integrate to nonzero; they are twice
    the monomials of degree d / 2.  Each entry is one int / int true division,
    which rounds correctly, as ``float(Fraction)`` does.
    """
    halves = _monomial_tuple(degree // 2)[::-1]  # ascending keys
    keys = (2 * _exponent_array(degree // 2)[::-1]) @ _key_weights(degree)
    den = _integral_denominator(degree // 2)  # shared: every half sums to degree / 2
    return keys, np.array([_integral_numerator(k) / den for k in halves])


def sphere_integral(p: Polynomial4):
    """Integral of p over the unit three-sphere (surface measure, area 2 pi^2)."""
    total = 0
    for expts, c in p:
        coeff = monomial_integral_coefficient(expts)
        if coeff:
            total += c * float(coeff)
    return total * math.pi**2


def sphere_inner(p: Polynomial4, q: Polynomial4):
    """L2(S^3) inner product, conjugate-linear in the first argument."""
    return sphere_integral(p.conjugate() * q)


# ---------------------------------------------------------------------------
# harmonic basis (exact) and orthonormal truncated space
# ---------------------------------------------------------------------------


def harmonic_basis(n: int) -> np.ndarray:
    """Exact integer basis of degree-n harmonic polynomials: an int64 matrix over monomials(n).

    Column c is the c-th head m = x1^a y^beta, a in {0, 1}, of ``monomials(n)`` ((n+1)^2
    heads, the last rows, in that order): the unique harmonic polynomial whose x1^0 / x1^1
    part is m, primitive and positive on m.  These are the reduced-row-echelon nullspace
    vectors of the Laplacian in that monomial order, whose pivots are the monomials with
    x1-exponent >= 2.  A column's polynomial is ``Polynomial4(dict(zip(monomials(n), column)))``.

    The Cauchy-Kovalevskaya series along x1, scaled by (2K+a)!, K = |beta| // 2, has one term
    per j = (j2, j3, j4) in the box 2j <= beta: with k = j2 + j3 + j4 its coefficient of
    x1^(2k+a) y^(beta-2j) is W_a[k] G[b2, j2] G[b3, j3] G[b4, j4], where
    W_a[k] = (-1)^k (2K+a)!/(2k+a)! k! and G[b, j] = b!/((b-2j)! j!).  No two terms share a
    monomial.  The products are exact Python ints, divided by each column's gcd; the int64
    conversion raises ``OverflowError`` rather than wrapping.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    fact, half = math.factorial, range(n // 2 + 1)
    tops = (n // 2, max(n - 1, 0) // 2)  # K for a = 0 and a = 1
    weights = np.array([[(-1) ** k * (fact(2 * top + a) // fact(2 * k + a)) * fact(k) for k in half]
                        for a, top in enumerate(tops)], dtype=object)
    falling = np.array([[fact(b) // (fact(b - 2 * j) * fact(j)) if 2 * j <= b else 0 for j in half]
                        for b in range(n + 1)], dtype=object)
    monos = _exponent_array(n)
    heads = monos[len(monos) - (n + 1) ** 2:]
    sides = heads[:, 1:] // 2 + 1  # of each head's box of j
    sizes = sides.prod(axis=1)
    starts = np.cumsum(sizes) - sizes
    col = np.repeat(np.arange(len(heads)), sizes)  # the boxes laid end to end
    r, s = np.arange(len(col)) - starts[col], sides[col]  # r: the term's place in its box
    j = np.column_stack((r // (s[:, 1] * s[:, 2]), r // s[:, 2] % s[:, 1], r % s[:, 2]))  # j4 fastest
    a, beta, k = heads[col, 0], heads[col, 1:], j.sum(axis=1)
    terms = weights[a, k]
    for i in range(3):
        terms = terms * falling[beta[:, i], j[:, i]]
    gcd = np.gcd.reduceat(terms, starts)
    keys = np.column_stack((2 * k + a, beta - 2 * j)) @ _key_weights(n)
    out = np.zeros((len(monos), len(heads)), dtype=np.int64)
    out[len(monos) - 1 - np.searchsorted(_ascending_keys(n), keys), col] = (terms // gcd[col]).astype(np.int64)
    return out


@dataclass(eq=False)  # compared by identity: its fields are arrays and caches
class TruncatedSpace:
    """Orthonormal harmonic bases for levels 0..n_max with block offsets.

    ``bases[n]`` is the one stored form of level n: a float matrix whose
    columns are the orthonormal level-n basis over monomials(n).  Polynomials
    are derived from its columns when asked for.
    """

    n_max: int
    bases: list[np.ndarray]
    offsets: tuple[int, ...]
    dim: int
    _grams: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, repr=False)
    _duals: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = field(default_factory=dict, repr=False)

    def level_dim(self, n: int) -> int:
        return (n + 1) ** 2

    def level_slice(self, n: int) -> slice:
        return slice(self.offsets[n], self.offsets[n + 1])

    def gram_matrix(self, d1: int, d2: int) -> np.ndarray:
        """Float Gram of monomials(d1) against monomials(d2) on the sphere.

        x^e x^e' integrates to nonzero exactly when e and e' have the same
        exponent parities, so only those blocks are formed, one parity class
        at a time.  The key of e + e' under ``_key_weights(d1 + d2)``, which is
        additive in the exponents, is found by binary search among the keys of
        the nonzero integrals; every other entry is 0.
        """
        key = (d1, d2)
        if key not in self._grams:
            w, (e1, e2) = _key_weights(d1 + d2), (_exponent_array(d1), _exponent_array(d2))
            gram = np.zeros((len(e1), len(e2)))
            if (d1 + d2) % 2 == 0:  # else every product has an odd exponent
                even, values = _even_integrals(d1 + d2)
                (k1, p1), (k2, p2) = (e1 @ w, _parity_classes(d1)), (e2 @ w, _parity_classes(d2))
                for c in set(p1.tolist()):  # the parity classes of e1
                    i, j = np.flatnonzero(p1 == c), np.flatnonzero(p2 == c)
                    gram[np.ix_(i, j)] = values[np.searchsorted(even, k1[i, None] + k2[j])]
            self._grams[key] = gram * math.pi**2
        return self._grams[key]

    def basis_matrix(self, n: int) -> np.ndarray:
        """Columns are the orthonormal level-n basis over monomials(n)."""
        return self.bases[n]

    def class_duals(self, n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Level n's b^T G, block-diagonal over the classes as b and G are, formed once from
        ``basis_matrix`` and ``gram_matrix``: per class size of ``_class_blocks(n)``, the classes
        (k,), their monomial rows (k, rows) and blocks (k, columns, rows), columns in natural order."""
        if n not in self._duals:
            self._duals[n] = _class_duals(self.basis_matrix(n), self.gram_matrix(n, n), n)
        return self._duals[n]

    def vector_to_poly(self, v: np.ndarray, level: int) -> Polynomial4:
        """Polynomial form of the level-n block of a coordinate vector.

        Sums coefficient times basis column over the nonzero coefficients in
        column order; that order fixes the rounding of every coefficient.
        """
        block = np.asarray(v)[self.level_slice(level)]
        monos = monomials(level)
        acc = np.zeros(len(monos), dtype=np.result_type(block, 1.0))
        for coeff, column in zip(block, self.bases[level].T):
            if coeff != 0:
                acc = acc + coeff * column
        return Polynomial4(dict(zip(monos, acc)))

    def to_json(self) -> str:
        """Every basis element as its array of terms, one array of elements per level."""
        levels = ",\n".join(
            "[\n" + ",\n".join(Polynomial4(dict(zip(monomials(n), column))).to_json() for column in b.T) + "\n]"
            for n, b in enumerate(self.bases)
        )
        return f'{{\n"n_max": {self.n_max},\n"dimension": {self.dim},\n"levels": [\n{levels}\n]\n}}'

    def export_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


@lru_cache(maxsize=None)
def _class_blocks(degree: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Rows and columns of ``harmonic_basis(degree)`` by exponent-parity class, grouped by size.

    A class is the monomials whose exponents have one parity pattern p; it holds C(M+3, 3)
    monomials and C(M+2, 2) heads, M = (d - |p|) / 2, so the column count fixes the block
    shape.  Maps each column count to two read-only arrays, the row indices (classes, rows)
    and the column indices (classes, columns), classes in ascending order of their pattern.
    """
    pattern, heads = _parity_classes(degree), _column_classes(degree)  # every nonempty class has a head
    groups: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for c in sorted(set(heads.tolist())):
        cols = np.flatnonzero(heads == c)
        groups.setdefault(len(cols), []).append((np.flatnonzero(pattern == c), cols))
    out = {size: tuple(np.array(x) for x in zip(*blocks)) for size, blocks in groups.items()}
    for rows, cols in out.values():
        rows.flags.writeable = cols.flags.writeable = False
    return out


def _class_duals(b: np.ndarray, gram: np.ndarray, degree: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One level's class blocks of b^T G (``TruncatedSpace.class_duals``), one product per class size."""
    return [(_column_classes(degree)[cols[:, 0]], rows,
             b[rows[:, :, None], cols[:, None, :]].swapaxes(1, 2) @ gram[rows[:, :, None], rows[:, None, :]])
            for rows, cols in _class_blocks(degree).values()]


def _inverse_sqrt(grams: list[np.ndarray], levels: list[np.ndarray]) -> list[np.ndarray]:
    """S^(-1/2) of every matrix S of each (count, k, k) stack in ``grams``, one stacked ``eigh``
    per stack.  ``levels[i]`` gives the level of each matrix of stack i: raises ``ValueError``
    when a level's smallest eigenvalue over all its matrices is at most ``GRAM_TOLERANCE`` times
    its largest."""
    spectra = [np.linalg.eigh(g) for g in grams]
    count = max(int(lv.max()) for lv in levels) + 1
    low, high = np.full(count, np.inf), np.zeros(count)
    for (w, _), lv in zip(spectra, levels):
        np.minimum.at(low, lv, w[:, 0])  # eigh sorts ascending
        np.maximum.at(high, lv, w[:, -1])
    if (low <= GRAM_TOLERANCE * high).any():
        raise ValueError("Gram matrix numerically singular; basis construction is broken")
    return [(u * w[..., None, :] ** -0.5) @ u.swapaxes(-1, -2) for w, u in spectra]


def orthonormalize(n_max: int) -> TruncatedSpace:
    """Build the truncated space with per-level orthonormal harmonic bases.

    Symmetric (Loewdin) orthonormalization, b -> b (b^T G b)^(-1/2), with one refinement
    pass.  Two monomials integrate to nonzero only within one exponent-parity class, and
    every column of ``harmonic_basis`` lies in the class of its head, so b^T G b and its
    inverse square root are block-diagonal over the classes (``_class_blocks``): each class
    block is orthonormalized on its own, the blocks of one size from every level in one
    stack, and every entry outside a column's class is exactly 0.  The per-level Gram
    identity holds to better than 1e-12.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    offsets = tuple(accumulate(((n + 1) ** 2 for n in range(n_max + 1)), initial=0))
    space = TruncatedSpace(n_max=n_max, bases=[], offsets=offsets, dim=offsets[-1])
    exact, level_grams, stacks = [], [], {}  # stacks: size -> the (level, rows, cols) of its blocks
    for n in range(n_max + 1):
        exact.append(harmonic_basis(n))
        level_grams.append(space.gram_matrix(n, n))
        space.bases.append(np.zeros(exact[n].shape))
        for size, (rows, cols) in _class_blocks(n).items():
            stacks.setdefault(size, []).append((n, rows, cols))
    stacks = list(stacks.values())
    levels = [np.concatenate([np.full(len(r), n) for n, r, _ in s]) for s in stacks]
    grams = [np.concatenate([level_grams[n][r[:, :, None], r[:, None, :]] for n, r, _ in s]) for s in stacks]
    blocks = [np.concatenate([exact[n][r[:, :, None], c[:, None, :]] for n, r, c in s]).astype(float) for s in stacks]
    for _ in range(2):
        factors = _inverse_sqrt([b.swapaxes(-1, -2) @ g @ b for b, g in zip(blocks, grams)], levels)
        blocks = [b @ f for b, f in zip(blocks, factors)]
    for s, stack in zip(stacks, blocks):
        for (n, rows, cols), block in zip(s, np.split(stack, np.cumsum([len(r) for _, r, _ in s])[:-1])):
            space.bases[n][rows[:, :, None], cols[:, None, :]] = block
    return space
