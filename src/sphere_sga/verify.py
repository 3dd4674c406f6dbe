"""Identity-verification battery for the assembled representation.

Every check computes a scale-free residual
``|LHS - RHS|_F / max(1, |LHS|_F, |RHS|_F)`` with both sides restricted to
interior columns: an identity whose operator words raise the level at most k
times is asserted on levels <= n_max - k, where truncation cannot reach it.

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
share, the restrictive tensors among them, are formed once per suite.

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
from .algebra import GENERATORS, metric
from .hilbert import Polynomial4, laplacian, orthonormalize
from .operators import OperatorRep, OperatorSet, j_full, level_vector, real_parts
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
_F_AT_ONE = 2.0 * math.gamma(1.25) / math.gamma(0.75)  # f(1) straight from the Gamma function
_PAIRS4 = tuple(combinations(range(4), 2))
_PAIRS14 = tuple(combinations(range(1, 5), 2))


def f_scalar(h: float) -> float:
    """Gamma-ratio function f(h) = 2 Gamma(h/2 + 3/4) / Gamma(h/2 + 1/4)."""
    return 2.0 * math.exp(math.lgamma(h / 2 + 0.75) - math.lgamma(h / 2 + 0.25))


def interior_cut(space, k: int) -> int:
    """Number of basis columns spanning levels <= n_max - k."""
    top = space.n_max - k
    if top < 0:
        return 0
    return space.offsets[top + 1]


def rel_residual(lhs, rhs, cut: int) -> float:
    """Scale-free Frobenius residual on the first ``cut`` columns.

    Operators of one phase compare by their real parts; arrays directly.
    """
    if cut == 0:
        return 0.0
    if isinstance(lhs, OperatorRep):
        lhs, rhs = real_parts(lhs, rhs)
    diff = lhs[:, :cut] - rhs[:, :cut]
    denom = max(1.0, np.linalg.norm(lhs[:, :cut]), np.linalg.norm(rhs[:, :cut]))
    return float(np.linalg.norm(diff) / denom)


def _comm(a, b):
    return a @ b - b @ a


def _anti(a, b):
    return a @ b + b @ a


# rows, their operator context, and the evaluator
@dataclass(frozen=True)
class _Row:
    """One identity.  ``fn(ctx)`` returns the (lhs, rhs) pairs whose worst ``rel_residual``
    on levels <= n_max - k is the result, or the residual itself, optionally as
    ``(residual, note)``.  ``group`` is a key of ``DEFAULT_TOLERANCES`` or a fixed
    tolerance.  ``levels`` overrides the range (0, n_max - k); ``k`` None reports none."""

    name: str
    fn: Callable[[_Ctx | None], object]
    group: str | float
    k: int | None
    levels: tuple[int, int] | None = None


class _Ctx:
    """The operators of one operator set, and the products several rows share as cached
    properties: the first row that reads one computes it and is charged for it."""

    def __init__(self, ops: OperatorSet, c: float = 2.0):
        self.ops, self.space, self.c = ops, ops.space, c
        self.X, self.P, self.K, self.L = ops.X, ops.P, ops.K, ops.L
        self.ap, self.am, self.vp, self.vm = ops.a_plus, ops.a_minus, ops.v_plus, ops.v_minus
        self.h, self.H = ops.h, ops.H
        self.zero = OperatorRep.zero(ops.space)

    def J(self, i: int, j: int) -> OperatorRep:
        return self._J[(i, j)]

    _J = cached_property(lambda self: {(i, j): j_full(self.ops.J, i, j) for i in range(1, 5) for j in range(1, 5)})
    eye = cached_property(lambda self: OperatorRep.identity(self.space))
    T = cached_property(lambda self: algebra.tensor_T(self.ops.generators, c=self.c))
    R = cached_property(lambda self: algebra.tensor_R(self.ops.generators))
    h2 = cached_property(lambda self: self.h @ self.h)
    K2 = cached_property(lambda self: sum(k @ k for k in self.K))
    L2 = cached_property(lambda self: sum(l @ l for l in self.L))
    XP = cached_property(lambda self: sum(x @ p for x, p in zip(self.X, self.P)))
    PX = cached_property(lambda self: sum(p @ x for x, p in zip(self.X, self.P)))
    sqrt_h = cached_property(lambda self: level_vector(self.space, lambda n: (n + 1.0) ** 0.5))
    inv_sqrt_h = cached_property(lambda self: level_vector(self.space, lambda n: (n + 1.0) ** -0.5))

    @cached_property
    def chain(self) -> OperatorRep:
        """The cyclic contraction g_aa g_bb g_cc M_ab M_bc M_ca over distinct a, b, c."""
        table = {(g.a, g.b): m for g, m in self.ops.generators.items()}
        full = {(a, b): algebra.full_matrix(table, a, b) for a, b in permutations(range(1, 7), 2)}
        return sum(
            metric(a, a) * metric(b, b) * metric(c, c) * full[(a, b)] @ (full[(b, c)] @ full[(c, a)])
            for a, b, c in permutations(range(1, 7), 3)
        )


def _context(ops: OperatorSet | _Ctx, c: float = 2.0) -> _Ctx:
    """The context ``run_suite`` shares among its groups, or a new one for a standalone call."""
    return ops if isinstance(ops, _Ctx) else _Ctx(ops, c)


def _evaluate(rows: Iterable[_Row], ctx: _Ctx | None, tolerances: Mapping[str, float] | None) -> list[CheckResult]:
    tols, results = {**DEFAULT_TOLERANCES, **(tolerances or {})}, []
    for row in rows:
        t0 = time.perf_counter()
        out = row.fn(ctx)
        if isinstance(out, (float, tuple)):
            residual, note = out if isinstance(out, tuple) else (out, "")
        else:
            cut = interior_cut(ctx.space, row.k)
            residual = max(rel_residual(lhs, rhs, cut) for lhs, rhs in out)
            note = "" if cut else "vacuous"
        seconds = time.perf_counter() - t0
        tol = row.group if isinstance(row.group, float) else float(tols[row.group])
        levels = row.levels or (None if row.k is None else (0, max(ctx.space.n_max - row.k, -1)))
        results.append(CheckResult(row.name, float(residual), tol, levels=levels, note=note, seconds=seconds))
    return results


# spectrum
def spectrum_table(H: OperatorRep) -> list[dict]:
    """Per-level rows of the real symmetric H: expected energy, degeneracy,
    measured eigenvalue, residual, and whether every eigenvalue's
    nearest-integer-root level (``assigned``) is the level of its bucket."""
    eigenvalues = np.linalg.eigvalsh(H.real)
    rows = []
    for n in range(H.space.n_max + 1):
        block = eigenvalues[H.space.level_slice(n)]
        exact = float(n * (n + 2))
        assigned = np.rint(np.sqrt(np.maximum(block + 1.0, 0.0)) - 1.0).astype(int)
        rows.append({
            "n": n, "energy": exact, "degeneracy": (n + 1) ** 2, "measured": float(block.mean()),
            "residual": float(np.abs(block - exact).max()), "assigned": bool(np.all(assigned == n)),
        })
    return rows


def check_spectrum(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    """Spectrum n(n+2) with multiplicities (n+1)^2, and the paired su(2)
    Casimirs taking the value j(j+1) with j = n/2 on every level."""

    def spectrum(o):
        rows = spectrum_table(o.H)
        worst = max(r["residual"] for r in rows)
        if all(r["assigned"] for r in rows):
            return worst
        return max(worst, 1.0), "level assignment mismatch"

    def su2(o):
        # M = (R + S) / 2 and N = (R - S) / 2, with R = (J23, J31, J12) and S = (J14, J24, J34)
        rs = [(o.J(2, 3), o.J(1, 4)), (o.J(3, 1), o.J(2, 4)), (o.J(1, 2), o.J(3, 4))]
        m2 = sum((0.5 * (r + s)) @ (0.5 * (r + s)) for r, s in rs).real
        n2 = sum((0.5 * (r - s)) @ (0.5 * (r - s)) for r, s in rs).real
        worst = 0.0
        for n in range(o.space.n_max + 1):
            sl = o.space.level_slice(n)
            target = (n / 2.0) * (n / 2.0 + 1.0) * np.eye((n + 1) ** 2)
            worst = max(worst, float(np.abs(m2[sl, sl] - target).max()), float(np.abs(n2[sl, sl] - target).max()))
        return worst

    rows = [_Row("spectrum", spectrum, "spectrum", 0), _Row("su2:casimirs", su2, "su2", 0)]
    return _evaluate(rows, _context(ops), tolerances)


# commutators
def check_commutators(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    """All 105 generator commutators against the structure constants, plus
    the ladder-operator commutation relations."""

    def structure(g1, g2, o):
        combo = algebra.commutator_rhs(g1, g2)
        rhs = sum(coeff * o.ops.generators[idx] for idx, coeff in combo.terms) + combo.scalar * o.eye
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
        return ll + o.K[i - 1] @ o.K[j - 1] + o.K[j - 1] @ o.K[i - 1] - jj - float(i == j) * 2.0 * o.eye

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
        *(row(f"R_{a}{b}", lambda o, a=a, b=b: [(o.R[(a, b)], o.zero)]) for a, b in combinations(range(1, 7), 2)),
        row("Rform_KL_J", lambda o: (
            (_anti(o.K[i - 1], o.L[j - 1]) - _anti(o.L[i - 1], o.K[j - 1]) - 2.0 * o.h @ o.J(i, j), o.zero)
            for i, j in _PAIRS14
        )),
        row("Rform_LJ", partial(eps_form, "L")),
        row("Rform_KJ", partial(eps_form, "K")),
        row("Rform_JJ", lambda o: [(
            sum(algebra.epsilon_sign(p) * o.J(p[0], p[1]) @ o.J(p[2], p[3]) for p in permutations(range(1, 5))),
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
        # trace identity: (1/2) J.J = h^2 - 1
        row("alt:halfJJ_is_h2m1", lambda o: [
            (0.5 * sum(o.J(i, j) @ o.J(i, j) for i in range(1, 5) for j in range(1, 5) if i != j), o.h2 - o.eye)
        ]),
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
        row("casimir:C2_dual", lambda o: [(sum(metric(a, a) * o.R[(a, a)] for a in range(1, 7)), o.zero)]),
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
    return _evaluate((
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
    ), _context(ops), tolerances)


# ladder structure
def check_ladder(ops: OperatorSet, tolerances=None) -> list[CheckResult]:
    def outside_raising(o):
        # largest norm of an A+_i outside its level n -> n+1 blocks
        res = 0.0
        for a in o.ap:
            rest = a.real.copy()
            for n in range(o.space.n_max):
                rest[o.space.level_slice(n + 1), o.space.level_slice(n)] = 0.0
            res = max(res, float(np.linalg.norm(rest)))
        return res

    row = partial(_Row, group="ladder", k=2)
    return _evaluate((
        row("ladder:annihilates_vacuum", lambda o: max(
            float(np.linalg.norm(a.real[:, : o.space.offsets[1]])) for a in o.am
        ), k=0, levels=(0, 0)),
        row("ladder:level_shift", lambda o: (
            pair for p, m in zip(o.ap, o.am) for pair in ((_comm(o.h, p), p), (_comm(o.h, m), -m))
        ), k=1),
        row("ladder:adjoint_pair", lambda o: max(
            float(np.abs((p.adjoint() - m).real).max()) for p, m in zip(o.ap, o.am)
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
    ), _context(ops), tolerances)


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
def check_f_recursion(ops: OperatorSet | None = None, h_max: int = 20, tolerances=None) -> list[CheckResult]:
    def boost_chain(o):
        f = level_vector(o.space, lambda n: f_scalar(n + 1.0))
        for i in range(1, 5):
            rhs = sum(_anti(o.J(i, j), o.X[j - 1]) for j in range(1, 5) if j != i)
            yield f[:, None] * o.L[i - 1] * f, -o.sqrt_h[:, None] * rhs * o.sqrt_h

    def momentum_chain(o):
        w = level_vector(o.space, lambda n: f_scalar(n + 1.0) / math.sqrt(2.0 * (n + 1.0)))
        lo, hi = o.inv_sqrt_h[:, None], o.sqrt_h
        for p, vp, vm in zip(o.P, o.vp, o.vm):
            yield p, (-0.5 * w)[:, None] * (lo * vp * hi + lo * vm * hi) * w

    rows = [
        _Row("f:recursion", lambda _: max(
            abs(f_scalar(h) * f_scalar(h + 1) - (2 * h + 1)) / (2 * h + 1) for h in range(1, h_max + 1)
        ), "f_scalar", None),
        _Row("f:value_at_one", lambda _: abs(f_scalar(1.0) - _F_AT_ONE) / _F_AT_ONE, "f_scalar", None),
    ]
    if ops is not None:
        rows += [_Row("f:boost_chain", boost_chain, "f_matrix", 1)]
        rows += [_Row("f:momentum_chain", momentum_chain, "f_matrix", 1)]
    return _evaluate(rows, None if ops is None else _context(ops), tolerances)


# covariance of the symmetric tensor
def check_covariance(ops: OperatorSet, c: float = 2.0, tolerances=None) -> list[CheckResult]:
    """[M_ab, T~_cd] = i(g_ac T~_bd - g_bc T~_ad + g_ad T~_cb - g_bd T~_ca)."""

    def pairs(o):
        t = o.T
        for g, m in o.ops.generators.items():
            a, b = g.a, g.b
            for cc, dd in combinations_with_replacement(range(1, 7), 2):
                rhs = 1j * (
                    metric(a, cc) * t[(b, dd)] - metric(b, cc) * t[(a, dd)]
                    + metric(a, dd) * t[(cc, b)] - metric(b, dd) * t[(cc, a)]
                )
                yield _comm(m, t[(cc, dd)]), rhs

    return _evaluate([_Row("covariance:T", pairs, "covariance", 3)], _context(ops, c), tolerances)


# eigenstates
def eigenstate_vector(ops: OperatorSet, indices: Sequence[int]) -> np.ndarray:
    """Coordinates of A+_{mu_1} ... A+_{mu_n} applied to the ground state."""
    space = ops.space
    n = len(indices)
    if n > space.n_max - 1:
        raise ValueError(f"{n} raisings exceed the interior of a space with n_max={space.n_max}")
    if any(not 1 <= mu <= 4 for mu in indices):
        raise IndexError(f"ladder indices must lie in 1..4, got {list(indices)}")
    v = np.zeros(space.dim)
    v[0] = 1.0
    for mu in reversed(list(indices)):
        v = ops.a_plus[mu - 1].real @ v  # A+ is real
    return v


def build_eigenstates(ops: OperatorSet, indices: Sequence[int]) -> Polynomial4:
    """Polynomial form of the ladder-built eigenstate at level len(indices)."""
    return ops.space.vector_to_poly(eigenstate_vector(ops, indices), len(indices))


def check_eigenstates(ops: OperatorSet, levels: Iterable[int] | None = None, tolerances=None) -> list[CheckResult]:
    if levels is None:
        levels = range(1, min(4, ops.space.n_max - 1) + 1)
    return _evaluate([row for n in levels for row in _eigenstate_rows(n)], _context(ops), tolerances)


def _eigenstate_rows(n: int) -> list[_Row]:
    """Rows for the states built by n raisings.  The rank row builds one state
    per multiset of indices; the harmonicity row reuses them."""
    states = cache(lambda o: [eigenstate_vector(o.ops, ms) for ms in combinations_with_replacement(range(1, 5), n)])
    base = (1, 2) + (1,) * (n - 2)
    first = cache(lambda o: eigenstate_vector(o.ops, base))
    scale = cache(lambda o: max(1.0, float(np.linalg.norm(first(o)))))

    def rank(o):
        svals = np.linalg.svd(np.array([v[o.space.level_slice(n)] for v in states(o)]), compute_uv=False)
        return float(abs(int(np.sum(svals > 1e-8 * svals.max())) - (n + 1) ** 2))

    def harmonic(o):
        polys = [o.space.vector_to_poly(v, n) for v in states(o)]
        return max([laplacian(p).coeff_norm() / p.coeff_norm() for p in polys if p.coeff_norm() > 0], default=0.0)

    row = partial(_Row, group="eigenstate", k=n, levels=(n, n))
    rows = [row(f"eigen:rank_level{n}", rank, group=_RANK_TOLERANCE), row(f"eigen:harmonic_level{n}", harmonic)]
    if n >= 2:
        rows += [
            row(f"eigen:symmetric_level{n}", lambda o: max(
                float(np.linalg.norm(first(o) - eigenstate_vector(o.ops, p))) / scale(o)
                for p in set(permutations(base))
            )),
            row(f"eigen:traceless_level{n}", lambda o: float(np.linalg.norm(
                sum(eigenstate_vector(o.ops, (mu, mu) + base[2:]) for mu in range(1, 5))
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
    return {(i, j): _anti(spins[i], spins[j]) - 0.5 * float(i == j) * eye for i in range(3) for j in range(3)}


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
                res = max(res, float(np.abs(_comm(spins[l], t[(i, j)]) - rhs).max()))
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

    # each group is called by name, with one shared context in place of the operator set
    ctx = _Ctx(ops, c)
    groups = (
        check_spectrum, check_commutators, partial(check_restrictive, c=c), check_casimirs, check_position_momentum,
        check_ladder, check_v_route, check_f_recursion, partial(check_covariance, c=c), check_eigenstates,
    )
    checks = [check for group in groups for check in group(ctx, tolerances=tolerances)] + so3_demo(tolerances)
    return VerificationReport(n_max, ops.space.dim, checks, build_seconds=build_seconds, config={"c": c})
