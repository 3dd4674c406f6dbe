"""Identity-verification battery for the assembled representation.

Every check computes a scale-free residual
``|LHS - RHS|_F / max(1, |LHS|_F, |RHS|_F)`` with both sides restricted to
the columns of interior levels: an identity whose operator words raise the
level at most k times is asserted on levels <= n_max - k, where truncation
cannot reach it.

The suite covers: all 105 generator commutators and the ladder commutators,
the 21 + 15 restrictive tensor components (plus the hand-expanded component
shapes and the anticommutator-derived forms), Casimir values, the spectrum
with its degeneracies and the paired su(2) Casimirs, the position/momentum
contract, ladder structure and eigenstate construction, the Gamma-ratio
recursion with its operator chains, tensor covariance, and the spin one-half
demonstration of a restriction selecting one representation.

Each identity is one row of a table (``_Row``: name, callable, tolerance
group, raisings k).  One evaluator, ``_evaluate``, owns timing, interior
restriction, the worst residual over a row's pairs and every
``CheckResult``; each public ``check_*`` function evaluates one table.
``run_suite`` hands every group one context (``_Ctx``), so the products rows
share, T~ among them, are formed once per suite.

A row reads the context itself and forms its products on every column; its
residual compares the columns of levels <= its interior top n_max - k only,
and the row lambdas stay as the paper writes them.  ``rel_residual`` reads
each side's entries in those columns once (``OperatorRep.entries``: one
cached int32 index per top, the whole stack where k = 0) and sums |L - R|^2,
|L|^2 and |R|^2 from those two vectors.  The eigenstate rows raise the ground
state by A+'s level blocks, gathered once per context, and take each state's
Laplacian on its coefficients over the monomials (``hilbert.shift_map``).  A
shared product is sound up to a declared top: T~, K^2, L^2, XP and PX up to
n_max - 2, h^2 up to n_max - 1, and the cubic chain up to n_max - 3.
``_evaluate`` records the row's top on the context while the row runs, and a
row whose top is above a shared product's declared top raises ``ValueError``
when it reads it.  Each R row forms its own component through
``algebra.tensor_R``'s key and frees it once the row is evaluated.

Rows are written with the paper's factors of i; the operators carry them as
phases (see the operators module), so both sides of every identity are
evaluated in real arithmetic, and a side whose terms mix phases raises.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import algebra
from .algebra import GENERATORS, full_matrix, metric, signed_generator
from .hilbert import Polynomial4, orthonormalize, shift_map
from .operators import _XOR, OperatorRep, OperatorSet, _layout, _length, level_vector
from .report import CheckResult, VerificationReport

DEFAULT_N = 6

DEFAULT_TOLERANCES: dict[str, float] = {
    "commutator": 1e-10,
    "restrictive": 1e-10,
    "casimir": 1e-10,
    "spectrum": 1e-10,
    "su2": 1e-10,
    "position": 1e-10,
    "ladder": 1e-10,
    "v_route": 1e-10,
    "f_scalar": 1e-12,
    "f_matrix": 1e-8,
    "covariance": 1e-10,
    "eigenstate": 1e-10,
    "so3": 1e-12,
}

V_ROUTE_PHASES = (-1j, 1j)  # raising, lowering: the two constructions differ
                            # by one global phase per sign

_RANK_TOLERANCE = 0.5  # eigen:rank_level* counts missing dimensions, an integer
_EIGEN_RAISINGS = 4  # the eigenstate rows build the states of 1..4 raisings
_F_AT_ONE = 2.0 * math.gamma(1.25) / math.gamma(0.75)  # f(1) straight from the Gamma function
_F_RECURSION_H_MAX = 20  # f:recursion checks f(h) f(h + 1) = 2h + 1 for h = 1..20
_PAIRS4 = tuple(combinations(range(4), 2))
_PAIRS14 = tuple(combinations(range(1, 5), 2))


def f_scalar(h: float) -> float:
    """Gamma-ratio function f(h) = 2 Gamma(h/2 + 3/4) / Gamma(h/2 + 1/4)."""
    return 2.0 * math.exp(math.lgamma(h / 2 + 0.75) - math.lgamma(h / 2 + 0.25))


def rel_residual(lhs: OperatorRep, rhs: OperatorRep, top: int) -> float:
    """Scale-free Frobenius residual ``|L - R|_F / max(1, |L|_F, |R|_F)`` on the columns of
    levels <= ``top``; 0.0 for ``top < 0``.  Each side's entries there (``OperatorRep.entries``)
    are copied once, and the three squared norms summed from them.  Sides of different phases or
    grades raise ``ArithmeticError``.  With a zero side the residual is the other side's norm
    over max(1, that norm)."""
    if lhs.phase is None or rhs.phase is None:  # the distance is the other side's norm
        distance = lhs.distance(rhs, top)
        return distance / max(1.0, distance)
    lhs.check_summable(rhs)
    if top < 0:
        return 0.0
    left, right = lhs.entries(top), rhs.entries(top)  # new arrays
    norms = _length(left), _length(right)
    return _length(np.subtract(left, right, out=left)) / max(1.0, *norms)


def _comm(a: OperatorRep, b: OperatorRep) -> OperatorRep:
    return a.commutator(b)


def _anti(a: OperatorRep, b: OperatorRep) -> OperatorRep:
    return a.anticommutator(b)


# rows, their operator context, and the evaluator
@dataclass(frozen=True)
class _Row:
    """One identity.  ``fn(ctx)`` returns the (lhs, rhs) operator pairs whose worst ``rel_residual``
    on levels <= n_max - k is the result, or the residual itself, optionally as
    ``(residual, note)``.  ``group`` is a key of ``DEFAULT_TOLERANCES`` or a fixed
    tolerance.  ``levels`` overrides the range (0, n_max - k); ``k`` None reports none."""

    name: str
    fn: Callable[[_Ctx | None], object]
    group: str | float
    k: int | None
    levels: tuple[int, int] | None = None


class _shared:
    """A product rows share, read as an attribute of the context: formed once, by the first row
    that reads it, and kept in ``ctx.shared``.  It is sound on the columns of levels
    <= n_max - k (its declared top) only, so every read by a row whose top is higher raises
    ``ValueError``."""

    def __init__(self, k: int, fn: Callable[[_Ctx], OperatorRep]):
        self.k, self.fn = k, fn

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, ctx: _Ctx | None, owner=None):
        if ctx is None:
            return self
        declared = ctx.space.n_max - self.k
        if ctx.top is not None and ctx.top > declared:
            raise ValueError(f"a row on levels <= {ctx.top} reads {self.name}, sound on levels <= {declared} only")
        if self.name not in ctx.shared:
            ctx.shared[self.name] = self.fn(ctx)
        return ctx.shared[self.name]

    def __set__(self, ctx: _Ctx, value) -> None:  # a data descriptor: no instance attribute hides it
        raise AttributeError(f"{self.name} is formed by the context")


class _Ctx:
    """The operators of one operator set, and the products several rows share (``_shared``):
    the first row that reads one computes it and is charged for it.  ``top`` is the interior
    top of the row being evaluated, None outside a row."""

    def __init__(self, ops: OperatorSet, c: float = 2.0):
        self.ops, self.space, self.c = ops, ops.space, c
        self.X, self.P, self.K, self.L = ops.X, ops.P, ops.K, ops.L
        self.ap, self.am, self.vp, self.vm = ops.a_plus, ops.a_minus, ops.v_plus, ops.v_minus
        self.h, self.H = ops.h, ops.H
        self.zero = OperatorRep.zero(ops.space)
        self.top, self.shared = None, {}  # the row's top; the shared products formed so far, by name

    def J(self, i: int, j: int) -> OperatorRep:
        return full_matrix(self.ops.J, i, j)

    def release(self, name: str) -> None:
        """Free a shared product that no later row reads."""
        self.shared.pop(name, None)

    eye = cached_property(lambda self: OperatorRep.identity(self.space))
    T = _shared(2, lambda o: algebra.tensor_T(o.ops.generators, c=o.c))
    h2 = _shared(1, lambda o: o.h @ o.h)
    K2 = _shared(2, lambda o: sum(k @ k for k in o.K))
    L2 = _shared(2, lambda o: sum(l @ l for l in o.L))
    XP = _shared(2, lambda o: sum(x @ p for x, p in zip(o.X, o.P)))
    PX = _shared(2, lambda o: sum(p @ x for x, p in zip(o.X, o.P)))
    sqrt_h = cached_property(lambda self: level_vector(self.space, lambda n: (n + 1.0) ** 0.5))
    inv_sqrt_h = cached_property(lambda self: level_vector(self.space, lambda n: (n + 1.0) ** -0.5))

    @cached_property
    def raising(self) -> dict[tuple[int, int], np.ndarray]:
        """A+_mu's real blocks (mu, n), level n into n + 1, for every level the eigenstate rows raise."""
        levels = range(min(_EIGEN_RAISINGS, self.space.n_max))
        return {(mu, n): a.block(n + 1, n) for mu, a in enumerate(self.ap, 1) for n in levels}

    @partial(_shared, 3)
    def chain(o) -> OperatorRep:
        """The cyclic contraction g_aa g_bb g_cc M_ab M_bc M_ca over distinct a, b, c,
        as sum_ab g_aa g_bb M_ab Q_ba with Q_ba = sum_c g_cc M_bc M_ca; the signs of the
        stored generators fold into the metric factors."""
        table = {(g.a, g.b): m for g, m in o.ops.generators.items()}
        chain = 0
        for a, b in permutations(range(1, 7), 2):
            q = 0
            for c in range(1, 7):
                if c not in (a, b):
                    (s_bc, m_bc), (s_ca, m_ca) = signed_generator(table, b, c), signed_generator(table, c, a)
                    q = q + (s_bc * s_ca * metric(c, c)) * m_bc @ m_ca
            s_ab, m_ab = signed_generator(table, a, b)
            chain = chain + (s_ab * metric(a, a) * metric(b, b)) * m_ab @ q
        return chain


def _context(ops: OperatorSet | _Ctx, c: float = 2.0) -> _Ctx:
    """The context ``run_suite`` shares among its groups, which holds its own ``c``, or a new one."""
    return ops if isinstance(ops, _Ctx) else _Ctx(ops, c)


def _residual(out, top: int | None) -> tuple[float, str]:
    """A row's worst residual and note from what its function returned.  The row's sides live
    only in this call, so they are freed before the next row forms its own."""
    if isinstance(out, (float, tuple)):
        return out if isinstance(out, tuple) else (out, "")
    residuals, phases = [], set()
    for lhs, rhs in out:
        residuals.append(rel_residual(lhs, rhs, top))
        phases |= {lhs.phase, rhs.phase}
    # vacuous: every side is the zero operator, which has no phase
    return max(residuals), "" if phases != {None} else "vacuous"


def _evaluate(rows: Iterable[_Row], ctx: _Ctx | None, tolerances: Mapping[str, float] | None) -> list[CheckResult]:
    tols, results = {**DEFAULT_TOLERANCES, **(tolerances or {})}, []
    for row in rows:
        top = None if row.k is None else ctx.space.n_max - row.k  # the highest interior level
        t0 = time.perf_counter()
        # no interior level: the row has nothing to compare, so its sides are not formed
        vacuous = top is not None and top < 0
        if ctx is not None:
            ctx.top = top  # checked by every read of a shared product while the row's sides are formed
        try:
            residual, note = (0.0, "vacuous") if vacuous else _residual(row.fn(ctx), top)
        finally:
            if ctx is not None:
                ctx.top = None
        seconds = time.perf_counter() - t0
        tol = row.group if isinstance(row.group, float) else float(tols[row.group])
        levels = row.levels or (None if top is None else (0, max(top, -1)))
        results.append(CheckResult(row.name, float(residual), tol, levels=levels, note=note, seconds=seconds))
    return results


# spectrum
def spectrum_table(H: OperatorRep) -> list[dict]:
    """Per-level rows of the real symmetric, level-preserving H: expected energy,
    degeneracy, mean measured eigenvalue and residual.  Level n's eigenvalues
    are those of H's block (n, n)."""
    rows = []
    for n in range(H.space.n_max + 1):
        values, exact = np.linalg.eigvalsh(H.block(n, n)), float(n * (n + 2))
        rows.append({
            "n": n, "energy": exact, "degeneracy": (n + 1) ** 2, "measured": float(values.mean()),
            "residual": float(np.abs(values - exact).max()),
        })
    return rows


def check_spectrum(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    """Spectrum n(n+2) with multiplicities (n+1)^2, and the paired su(2)
    Casimirs taking the value j(j+1) with j = n/2 on every level."""

    def su2(o):
        # M = (R + S) / 2 and N = (R - S) / 2, with R = (J23, J31, J12) and S = (J14, J24, J34), so
        # M^2 and N^2 are (R^2 + S^2 +- (R.S + S.R)) / 4.  R_k and S_k have different grades, so
        # the two grade-homogeneous parts are formed apart and summed as dense level blocks,
        # where their supports are disjoint
        rs = [(o.J(2, 3), o.J(1, 4)), (o.J(3, 1), o.J(2, 4)), (o.J(1, 2), o.J(3, 4))]
        squares = sum(r @ r + s @ s for r, s in rs)
        cross = sum(r.anticommutator(s) for r, s in rs)
        worst = 0.0
        for n in range(o.space.n_max + 1):
            target = (n / 2.0) * (n / 2.0 + 1.0) * np.eye((n + 1) ** 2)
            base, mixed = 0.25 * squares.block(n, n), 0.25 * cross.block(n, n)
            for c2 in (base + mixed, base - mixed):
                worst = max(worst, float(np.abs(c2 - target).max()))
        return worst

    rows = [
        _Row("spectrum", lambda o: max(r["residual"] for r in spectrum_table(o.H)), "spectrum", 0),
        _Row("su2:casimirs", su2, "su2", 0),
    ]
    return _evaluate(rows, _context(ops), tolerances)


# commutators
def check_commutators(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    """All 105 generator commutators against the structure constants, plus
    the ladder-operator commutation relations."""

    def structure(g1, g2, o):
        combo = algebra.commutator_rhs(g1, g2)
        rhs = sum((coeff * o.ops.generators[idx] for idx, coeff in combo.terms), o.zero)
        return [(_comm(o.ops.generators[g1], o.ops.generators[g2]), rhs)]

    row = partial(_Row, group="commutator", k=2)
    return _evaluate((
        *(row(f"comm:[{a},{b}]", partial(structure, a, b)) for a, b in combinations(GENERATORS, 2)),
        row("comm:[A+,A+]", lambda o: ((_comm(o.ap[i], o.ap[j]), o.zero) for i, j in _PAIRS4)),
        row("comm:[A-,A-]", lambda o: ((_comm(o.am[i], o.am[j]), o.zero) for i, j in _PAIRS4)),
        row("comm:[A+,A-]", lambda o: (
            (_comm(o.ap[i], o.am[j]), -2j * o.J(i + 1, j + 1) - float(i == j) * 2.0 * o.h)
            for i in range(4) for j in range(4)
        )),
    ), _context(ops), tolerances)


# restrictive tensors
def check_restrictive(ops: OperatorSet, c: float = 2.0, tolerances=None) -> list[CheckResult]:
    """Vanishing of both invariant tensors on the representation, of the
    hand-expanded component shapes, and of the anticommutator-derived forms."""

    def eps_form(name, o):
        # for each i: the sum over orderings p of the other indices of eps(i, p) {V_p0, J_p1p2}
        V = getattr(o, name)
        for i in range(1, 5):
            others = permutations([x for x in range(1, 5) if x != i])
            yield sum(algebra.epsilon_sign((i,) + p) * _anti(V[p[0] - 1], o.J(p[1], p[2])) for p in others), o.zero

    def j_anti(o, i, vec):
        return sum(_anti(o.J(i, k), vec[k - 1]) for k in range(1, 5) if k != i)

    def quad(i, j, o):
        jj = sum(_anti(o.J(i, k), o.J(j, k)) for k in range(1, 5) if k not in (i, j))
        ll = _anti(o.L[i - 1], o.L[j - 1])
        return ll + _anti(o.K[i - 1], o.K[j - 1]) - jj - float(i == j) * 2.0 * o.eye

    row = partial(_Row, group="restrictive", k=2)

    def alt(name: str, expr: Callable[[_Ctx], OperatorRep], key=None, scale: float = -1.0) -> _Row:
        # a derived form must vanish and, where it matches the tensor component
        # scale * T~[key] algebraically, agree with that component
        def pairs(o):
            e = expr(o)
            return [(e, o.zero)] + ([] if key is None else [(e, scale * o.T[key])])

        return row(name, pairs)

    return _evaluate((
        *(row(f"T~_{a}{b}", lambda o, a=a, b=b: [(o.T[(a, b)], o.zero)]) for a in range(1, 7) for b in range(a, 7)),
        # each R row forms its own component, freed once the row is evaluated
        *(row(f"R_{a}{b}", lambda o, a=a, b=b: [(algebra.tensor_R(o.ops.generators, (a, b)), o.zero)])
          for a, b in combinations(range(1, 7), 2)),
        row("Rform_KL_J", lambda o: (
            (_anti(o.K[i - 1], o.L[j - 1]) - _anti(o.L[i - 1], o.K[j - 1]) - 2.0 * o.h @ o.J(i, j), o.zero)
            for i, j in _PAIRS14
        )),
        row("Rform_LJ", partial(eps_form, "L")),
        row("Rform_KJ", partial(eps_form, "K")),
        # the sum over orderings p of eps(p) J_p0p1 J_p2p3: each of the three pair
        # splittings appears in eight orderings, which give four anticommutators
        row("Rform_JJ", lambda o: [(
            4.0 * sum(algebra.epsilon_sign(p) * _anti(o.J(p[0], p[1]), o.J(p[2], p[3]))
                      for p in algebra.pair_partitions((1, 2, 3, 4))),
            o.zero,
        )]),
        *(
            r
            for i in range(1, 5)
            for r in (
                alt(f"alt:JL_is_hK_{i}", lambda o, i=i: j_anti(o, i, o.L) - _anti(o.h, o.K[i - 1]), (i, 6)),
                alt(f"alt:JK_is_mhL_{i}", lambda o, i=i: j_anti(o, i, o.K) + _anti(o.h, o.L[i - 1]), (i, 5)),
            )
        ),
        alt("alt:K2_3L2", lambda o: o.K2 - 3.0 * o.L2 + 2.0 * o.h2 + 2.0 * o.eye),
        alt("alt:L2_3K2", lambda o: o.L2 - 3.0 * o.K2 + 2.0 * o.h2 + 2.0 * o.eye),
        alt("alt:K2_is_h2p1", lambda o: o.K2 - o.h2 - o.eye, (5, 5), 0.5),
        alt("alt:L2_is_h2p1", lambda o: o.L2 - o.h2 - o.eye, (6, 6), 0.5),
        alt("alt:KL_anticomm", lambda o: sum(_anti(k, l) for k, l in zip(o.K, o.L)), (5, 6), 1.0),
        *(alt(f"alt:quad_{i}{j}", partial(quad, i, j), (i, j)) for i in range(1, 5) for j in range(i, 5)),
        # trace identity: (1/2) J.J = h^2 - 1, where J_ji J_ji = J_ij J_ij
        row("alt:halfJJ_is_h2m1", lambda o: [(sum(o.J(i, j) @ o.J(i, j) for i, j in _PAIRS14), o.h2 - o.eye)]),
    ), _context(ops, c), tolerances)


# Casimirs
def check_casimirs(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    """Quadratic Casimir value, the dual contraction, and the cubic Casimir.

    The cubic cyclic contraction needs an operator-ordering prescription; the
    Hermitian average of the chain with its adjoint is used, which removes a
    pure reordering constant (the raw chain is -12i times the identity).
    """
    row = partial(_Row, group="casimir", k=2)
    return _evaluate((
        row("casimir:C2", lambda o: [(
            sum(2.0 * metric(g.a, g.a) * metric(g.b, g.b) * (m @ m) for g, m in o.ops.generators.items()),
            -6.0 * o.eye,
        )]),
        # g_aa R^aa sums R's diagonal, which antisymmetry makes the zero operator
        row("casimir:C2_dual", lambda o: [(o.zero, o.zero)]),
        row("casimir:C3", lambda o: [(0.5 * (o.chain + o.chain.adjoint()), o.zero)], k=3),
        row("casimir:C3_ordering_constant", lambda o: [(o.chain, -12j * o.eye)], k=3),
    ), _context(ops), tolerances)


# position / momentum contract
def check_position_momentum(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    def rotation_law(name, o):
        # vector transformation law under the rotation subalgebra
        V = getattr(o, name)
        for i, k in _PAIRS14:
            for l in range(1, 5):
                yield _comm(o.J(i, k), V[l - 1]), -1j * (float(k == l) * V[i - 1] - float(i == l) * V[k - 1])

    row = partial(_Row, group="position", k=2)
    ctx = _context(ops)
    results = _evaluate((
        row("pos:[X,X]", lambda o: ((_comm(o.X[i], o.X[j]), o.zero) for i, j in _PAIRS4)),
        row("pos:sumX2", lambda o: [(sum(x @ x for x in o.X), o.eye)]),
        row("pos:XP+PX", lambda o: [(o.XP + o.PX, o.zero)]),
        row("pos:XP", lambda o: [(o.XP, 1.5j * o.eye)]),
        row("pos:PX", lambda o: [(o.PX, -1.5j * o.eye)]),
        row("pos:H_is_P2_minus_94", lambda o: [(o.H, sum(p @ p for p in o.P) - 2.25 * o.eye)]),
        row("pos:[P,X]", lambda o: (
            (_comm(o.P[j], o.X[k]), -1j * (float(j == k) * o.eye - o.X[j] @ o.X[k])) for j in range(4) for k in range(4)
        )),
        row("pos:[P,P]", lambda o: ((_comm(o.P[i], o.P[j]), -1j * o.J(i + 1, j + 1)) for i, j in _PAIRS4)),
        row("pos:[H,X]", lambda o: ((_comm(o.H, o.X[i]), -2j * o.P[i]) for i in range(4))),
        row("pos:J_is_XP_antisym", lambda o: (
            (o.X[i] @ o.P[j] - o.X[j] @ o.P[i], o.J(i + 1, j + 1)) for i, j in _PAIRS4
        )),
        # momentum from the boost pair: P_i = (1/2) h^(-1/2) (h L_i + L_i h) h^(-1/2)
        row("pos:P_from_boost", lambda o: (
            (p, (0.5 * o.inv_sqrt_h)[:, None] * _anti(o.h, l) * o.inv_sqrt_h) for p, l in zip(o.P, o.L)
        ), k=1),
        row("vector:J_X", partial(rotation_law, "X")),
        row("vector:J_P", partial(rotation_law, "P")),
    ), ctx, tolerances)
    for name in ("XP", "PX"):  # no later group reads them
        ctx.release(name)
    return results


# ladder structure
def check_ladder(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    @cache  # formed by the first row that reads it, and freed with these rows
    def l_commutator(o) -> list[OperatorRep]:
        """L_i formed as the commutator -i [K_i, h], which the builder's exact L_i stands for."""
        h = level_vector(o.space, lambda n: n + 1.0)
        return [-1j * (k * h - h[:, None] * k) for k in o.K]

    def outside_raising(o):
        # largest norm of K_i - i L_i outside its level n -> n+1 entries, read from the stack by
        # slot level: blocks[c]'s rows are slots of class c ^ grade, its columns of class c
        level = _layout(o.space.n_max).level
        raised = (k - 1j * l for k, l in zip(o.K, l_commutator(o)))
        return max(_length(a.blocks[level[_XOR[a.grade], :, None] != level[:, None, :] + 1]) for a in raised)

    row = partial(_Row, group="ladder", k=2)
    ctx = _context(ops)
    results = _evaluate((
        row("ladder:annihilates_vacuum", lambda o: max(a.norm(0) for a in o.am), k=0, levels=(0, 0)),
        row("ladder:level_shift", lambda o: (
            pair for p, m in zip(o.ap, o.am) for pair in ((_comm(o.h, p), p), (_comm(o.h, m), -m))
        ), k=1),
        # the stored A-_i (the adjoint of A+_i) against the paper's K_i + i L_i
        row("ladder:adjoint_pair", lambda o: max(
            float(np.abs((k + 1j * l - m).blocks).max()) for m, k, l in zip(o.am, o.K, l_commutator(o))
        ), k=0),
        row("ladder:sum_sq_plus", lambda o: [(sum(a @ a for a in o.ap), o.zero)]),
        row("ladder:sum_sq_minus", lambda o: [(sum(a @ a for a in o.am), o.zero)]),
        row("ladder:number_down", lambda o: [
            (sum(p @ m for p, m in zip(o.ap, o.am)), 2.0 * o.h2 + 2.0 * o.eye - 4.0 * o.h)
        ], k=1),
        row("ladder:number_up", lambda o: [
            (sum(m @ p for p, m in zip(o.ap, o.am)), 2.0 * o.h2 + 2.0 * o.eye + 4.0 * o.h)
        ], k=1),
        row("ladder:strictly_raising", outside_raising, k=0),
        row("ladder:K2_sum_rule", lambda o: [(o.K2, o.h2 + o.eye)]),
        row("ladder:L2_sum_rule", lambda o: [(o.L2, o.h2 + o.eye)]),
    ), ctx, tolerances)
    for name in ("K2", "L2", "h2"):  # no later group reads them
        ctx.release(name)
    return results


# the eigenoperator (V) route
def check_v_route(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    def adjoint(o):
        # (V+_i)^dagger = (h + 1) h^-1 V-_i
        ratio = level_vector(o.space, lambda n: (n + 2.0) / (n + 1.0))[:, None]
        return ((p.adjoint(), ratio * m) for p, m in zip(o.vp, o.vm))

    row = partial(_Row, group="v_route", k=1)
    return _evaluate((
        row("v:eigen_shift", lambda o: (
            (shift @ v, v @ o.h) for V, shift in ((o.vp, o.h - o.eye), (o.vm, o.h + o.eye)) for v in V
        )),
        row("v:adjoint", adjoint, k=0),
        row("v:commutator", lambda o: (
            (_comm(o.vm[i], o.vp[j]), -2j * o.J(i + 1, j + 1) + float(i == j) * 2.0 * o.h)
            for i in range(4) for j in range(4)
        )),
        row("v:same_sign_commute", lambda o: (
            (_comm(V[i], V[j]), o.zero) for V in (o.vp, o.vm) for i, j in _PAIRS4
        ), k=2),
        row("v:ladder_match", lambda o: (
            (o.inv_sqrt_h[:, None] * v * o.sqrt_h, phase * a)
            for V, A, phase in zip((o.vp, o.vm), (o.ap, o.am), V_ROUTE_PHASES) for v, a in zip(V, A)
        )),
    ), _context(ops), tolerances)


# Gamma-ratio recursion and its operator chains
def check_f_recursion(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    def boost_chain(o):
        f = level_vector(o.space, lambda n: f_scalar(n + 1.0))
        for l, p in zip(o.L, o.P):  # -sum_k {J_ik, X_k} is 2 P_i, exactly
            yield f[:, None] * l * f, (2.0 * o.sqrt_h)[:, None] * p * o.sqrt_h

    def momentum_chain(o):
        w = level_vector(o.space, lambda n: f_scalar(n + 1.0) / math.sqrt(2.0 * (n + 1.0)))
        lo, hi = o.inv_sqrt_h[:, None], o.sqrt_h
        for p, vp, vm in zip(o.P, o.vp, o.vm):
            yield p, (-0.5 * w)[:, None] * (lo * vp * hi + lo * vm * hi) * w

    return _evaluate((
        _Row("f:recursion", lambda _: max(
            abs(f_scalar(h) * f_scalar(h + 1) - (2 * h + 1)) / (2 * h + 1) for h in range(1, _F_RECURSION_H_MAX + 1)
        ), "f_scalar", None),
        _Row("f:value_at_one", lambda _: abs(f_scalar(1.0) - _F_AT_ONE) / _F_AT_ONE, "f_scalar", None),
        _Row("f:boost_chain", boost_chain, "f_matrix", 1),
        _Row("f:momentum_chain", momentum_chain, "f_matrix", 1),
    ), _context(ops), tolerances)


# covariance of the symmetric tensor
def check_covariance(ops: OperatorSet, c: float = 2.0, tolerances=None) -> list[CheckResult]:
    """[M_ab, T~_cd] = i(g_ac T~_bd - g_bc T~_ad + g_ad T~_cb - g_bd T~_ca)."""

    def pairs(o):
        t = o.T
        for g, m in o.ops.generators.items():
            a, b = g.a, g.b
            for cc, dd in combinations_with_replacement(range(1, 7), 2):
                # g is diagonal with entries +-1: a term is formed only where its metric factor is
                # nonzero, and added or subtracted by its exact sign, in the formula's order
                rhs = o.zero
                for sign, (x, y), key in ((1, (a, cc), (b, dd)), (-1, (b, cc), (a, dd)),
                                          (1, (a, dd), (cc, b)), (-1, (b, dd), (cc, a))):
                    if x == y:
                        rhs = rhs + t[key] if sign * metric(x, y) > 0 else rhs - t[key]
                yield _comm(m, t[(cc, dd)]), 1j * rhs

    ctx = _context(ops, c)
    results = _evaluate([_Row("covariance:T", pairs, "covariance", 3)], ctx, tolerances)
    ctx.release("T")  # the last group that reads T~
    return results


# eigenstates
def _raised(blocks: Mapping[tuple[int, int], np.ndarray], indices: Sequence[int]) -> np.ndarray:
    """Level len(indices)'s coordinates of A+_{mu_1} ... A+_{mu_n} applied to the ground state,
    ``blocks[(mu, n)]`` the real block of A+_mu from level n into level n + 1."""
    state = np.ones(1)  # the ground state, level 0
    for level, mu in enumerate(reversed(indices)):
        state = blocks[(mu, level)] @ state  # A+ is real
    return state


def eigenstate_vector(a_plus: Sequence[OperatorRep], indices: Sequence[int]) -> np.ndarray:
    """Coordinates of A+_{mu_1} ... A+_{mu_n} applied to the ground state, one level block at a time."""
    space = a_plus[0].space
    n = len(indices)
    if n > space.n_max - 1:
        raise ValueError(f"a state at level {n} ({n} raisings) needs n_max >= {n + 1}, got n_max={space.n_max}")
    if any(not 1 <= mu <= 4 for mu in indices):
        raise IndexError(f"ladder indices must lie in 1..4, got {list(indices)}")
    blocks = {(mu, level): a_plus[mu - 1].block(level + 1, level) for level, mu in enumerate(reversed(indices))}
    v = np.zeros(space.dim)
    v[space.level_slice(n)] = _raised(blocks, indices)
    return v


def build_eigenstates(a_plus: Sequence[OperatorRep], indices: Sequence[int]) -> Polynomial4:
    """Polynomial form of the ladder-built eigenstate at level len(indices)."""
    return a_plus[0].space.vector_to_poly(eigenstate_vector(a_plus, indices), len(indices))


def check_eigenstates(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    levels = range(1, min(_EIGEN_RAISINGS, ops.space.n_max - 1) + 1)
    return _evaluate([row for n in levels for row in _eigenstate_rows(n)], _context(ops), tolerances)


def _laplacian(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """The Laplacian of the polynomials whose coefficients over monomials(degree) are the columns
    of ``coeffs``: d_k twice per variable by ``shift_map``, summed over k.  No rows below degree 2."""
    if degree < 2:
        return np.zeros((0, coeffs.shape[1]))
    out = 0.0
    for k, step in enumerate(((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)), 1):
        once = shift_map(degree, [step], [k], coeffs)[0]
        out = out + shift_map(degree - 1, [step], [k], once)[0]
    return out


def _eigenstate_rows(n: int) -> list[_Row]:
    """Rows for the states built by n raisings, from A+'s level blocks the context gathers once.
    The rank row builds one state per multiset of indices; the harmonicity row reuses them."""
    states = cache(lambda o: [_raised(o.raising, ms) for ms in combinations_with_replacement(range(1, 5), n)])
    base = (1, 2) + (1,) * (n - 2)
    first = cache(lambda o: _raised(o.raising, base))
    scale = cache(lambda o: max(1.0, float(np.linalg.norm(first(o)))))

    def rank(o):
        svals = np.linalg.svd(np.array(states(o)), compute_uv=False)
        return float(abs(int(np.sum(svals > 1e-8 * svals.max())) - (n + 1) ** 2))

    def harmonic(o):
        # each state's polynomial coefficients, and the ratio of its Laplacian's to them
        coeffs = o.space.basis_matrix(n) @ np.array(states(o)).T
        norms, laplacians = (np.sqrt(np.einsum("ij,ij->j", c, c)) for c in (coeffs, _laplacian(coeffs, n)))
        kept = norms > 0
        return float(np.max(laplacians[kept] / norms[kept], initial=0.0))

    row = partial(_Row, group="eigenstate", k=n, levels=(n, n))
    rows = [row(f"eigen:rank_level{n}", rank, group=_RANK_TOLERANCE), row(f"eigen:harmonic_level{n}", harmonic)]
    if n >= 2:
        rows += [
            row(f"eigen:symmetric_level{n}", lambda o: max(
                float(np.linalg.norm(first(o) - _raised(o.raising, p))) / scale(o)
                for p in set(permutations(base))
            )),
            row(f"eigen:traceless_level{n}", lambda o: float(np.linalg.norm(
                sum(_raised(o.raising, (mu, mu) + base[2:]) for mu in range(1, 5))
            )) / scale(o)),
        ]
    return rows


# spin demonstration: a quadratic restriction picks one representation
def spin_matrices(two_s: int) -> list[np.ndarray]:
    """Standard spin matrices (Sx, Sy, Sz) for spin s = two_s / 2."""
    s = two_s / 2.0
    dim = two_s + 1
    m_vals = [s - k for k in range(dim)]
    sz = np.diag(m_vals).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        m = m_vals[k]
        sp[k - 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2j
    return [sx, sy, sz]


def _so3_tensor(spins: list[np.ndarray]) -> dict[tuple[int, int], np.ndarray]:
    eye = np.eye(spins[0].shape[0], dtype=complex)
    return {
        (i, j): spins[i] @ spins[j] + spins[j] @ spins[i] - 0.5 * float(i == j) * eye for i in range(3) for j in range(3)
    }


def so3_demo(tolerances=None) -> list[CheckResult]:
    """Spin one-half satisfies the quadratic restriction exactly; spin one
    violates it; the restriction transforms covariantly either way."""

    def violation(_):
        largest = max(float(np.linalg.norm(v)) for v in _so3_tensor(spin_matrices(2)).values())
        return max(0.0, 0.5 - largest), f"largest component norm {largest:.3f}"

    def covariance(_):
        # [S_l, t_ij] = i (eps_lik t_kj + eps_ljk t_ik) for spin one-half and spin one
        eps3 = np.zeros((3, 3, 3))
        for p in permutations(range(3)):
            eps3[p] = algebra.epsilon_sign(tuple(x + 1 for x in p))
        res = 0.0
        for spins in (spin_matrices(1), spin_matrices(2)):
            t = _so3_tensor(spins)
            for l, i, j in np.ndindex(3, 3, 3):
                rhs = 1j * sum(eps3[l, i, k] * t[(k, j)] + eps3[l, j, k] * t[(i, k)] for k in range(3))
                comm = spins[l] @ t[(i, j)] - t[(i, j)] @ spins[l]
                res = max(res, float(np.abs(comm - rhs).max()))
        return res

    row = partial(_Row, group="so3", k=None)
    return _evaluate((
        row("so3:spin_half_restriction", lambda _: max(
            float(np.abs(v).max()) for v in _so3_tensor(spin_matrices(1)).values()
        )),
        row("so3:spin_one_violation", violation),
        row("so3:covariance", covariance),
    ), None, tolerances)


# the whole suite
def run_suite(
    n_max: int = DEFAULT_N,
    c: float = 2.0,
    tolerances: Mapping[str, float] | None = None,
    ops: OperatorSet | None = None,
) -> VerificationReport:
    """Build the representation at the given truncation and run every check.

    Raises ``ValueError`` for a non-finite ``c``, or for a tolerance override
    whose key is not a group of ``DEFAULT_TOLERANCES`` or whose value is not
    finite and positive.
    """
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c!r}")
    for key, value in (tolerances or {}).items():
        if key not in DEFAULT_TOLERANCES:
            problem = f"unknown tolerance group {key!r}"
        elif not (math.isfinite(value) and value > 0):
            problem = f"tolerance {key}={value!r} must be finite and > 0"
        else:
            continue
        raise ValueError(f"{problem}; valid groups: {', '.join(DEFAULT_TOLERANCES)}")
    if ops is not None:
        n_max = ops.space.n_max
    if n_max < 2:
        raise ValueError("verification needs n_max >= 2 so that interior levels exist")
    t0 = time.perf_counter()
    if ops is None:
        ops = OperatorSet.build(orthonormalize(n_max))
    build_seconds = time.perf_counter() - t0

    # each group is called by name, with one shared context (holding c) in place of the operator set
    ctx = _Ctx(ops, c)
    groups = (
        check_spectrum, check_commutators, check_restrictive, check_casimirs, check_position_momentum,
        check_ladder, check_v_route, check_f_recursion, check_covariance, check_eigenstates,
    )
    checks = [check for group in groups for check in group(ctx, tolerances=tolerances)] + so3_demo(tolerances)
    return VerificationReport(n_max, ops.space.dim, checks, build_seconds=build_seconds, config={"c": c}, with_margin=True)
