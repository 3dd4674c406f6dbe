import dataclasses
import json
import math
import time
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import numpy as np
import pytest

from sphere_sga import algebra, verify
from sphere_sga.algebra import metric
from sphere_sga.operators import OperatorRep, OperatorSet, build_P, level_vector
from sphere_sga.report import CheckResult
from sphere_sga.verify import (
    build_eigenstates,
    check_casimirs,
    check_commutators,
    check_eigenstates,
    check_f_recursion,
    check_restrictive,
    check_spectrum,
    eigenstate_vector,
    f_scalar,
    run_suite,
    so3_demo,
    spectrum_table,
    spin_matrices,
)
from sphere_sga.hilbert import Polynomial4, laplacian, monomials, orthonormalize

from conftest import definite_grade_matrix


class TestCheckResult:
    def test_pass_is_derived(self):
        good = CheckResult("x", residual=1e-12, tolerance=1e-10)
        bad = CheckResult("x", residual=1e-8, tolerance=1e-10)
        assert good.passed and not bad.passed

    def test_boundary(self):
        assert CheckResult("x", residual=1e-10, tolerance=1e-10).passed


class TestSuite:
    def test_full_suite_passes(self, ops4):
        report = run_suite(n_max=4, ops=ops4)
        assert report.overall_passed, [c.name for c in report.failures()]
        assert len(report.checks) > 200
        assert report.dimension == 55

    def test_rejects_tiny_space(self):
        with pytest.raises(ValueError):
            run_suite(n_max=1)

    def test_tolerance_override_can_fail(self, ops4):
        report = run_suite(n_max=4, ops=ops4, tolerances={"commutator": 1e-18})
        assert not report.overall_passed

    def test_json_roundtrip_and_determinism(self, ops4):
        r1 = run_suite(n_max=4, ops=ops4)
        r2 = run_suite(n_max=4, ops=ops4)
        j1 = r1.to_json(include_timing=False)
        j2 = r2.to_json(include_timing=False)
        assert j1 == j2
        doc = json.loads(j1)
        assert doc["n_max"] == 4 and doc["dimension"] == 55
        assert doc["overall_pass"] is True
        row = doc["checks"][0]
        assert set(row) == {"check", "residual", "tolerance", "pass", "levels", "seconds", "note"}
        assert all(c["seconds"] == 0.0 for c in doc["checks"])

    def test_text_rendering(self, ops4):
        report = run_suite(n_max=4, ops=ops4)
        text = report.to_text()
        assert "OVERALL: PASS" in text
        assert "spectrum" in text


def test_worst_margin_at_n8_is_a_vanishing_tensor_row():
    # the vanishing tensors' residual is the absolute round-off of the generators,
    # amplified by products: they set the numerical frontier
    report = run_suite(n_max=8)
    worst = report.worst
    assert worst.name.startswith(("T~_", "R_")) or worst.name == "covariance:T"
    assert worst.margin == max(c.margin for c in report.checks) < 0.2


def test_vanishing_tensor_rows_pass_at_the_n12_frontier():
    # T~ and R vanish on this representation, so their rows and covariance:T read
    # round-off, which grows with N: at N=12 covariance:T reads 0.774 of its gate on one
    # BLAS thread and 0.775 on two, and N=13 fails covariance:T at 1.86.
    # Both groups run on one context, so T~ is built once.
    ctx = verify._Ctx(OperatorSet.build(orthonormalize(12)))
    rows = [
        r for group in (check_restrictive, verify.check_covariance) for r in group(ctx)
        if r.name.startswith(("T~_", "R_")) or r.name == "covariance:T"
    ]
    assert len(rows) == 21 + 15 + 1
    worst = max(rows, key=lambda r: r.margin)
    failed = [r.name for r in rows if not r.passed]
    assert not failed, f"{failed} fail; worst {worst.name} at {worst.margin:.4f} of its gate"
    assert worst.margin <= 0.85, f"worst {worst.name} at {worst.margin:.4f} of its gate"


class TestGoldenSuite:
    """``suite-n4.json`` holds ``run_suite(n_max=4)`` as recorded before the
    identity battery became a row table with one evaluator."""

    def test_matches_recording(self, ops4):
        t0 = time.perf_counter()
        report = run_suite(n_max=4, ops=ops4)
        wall = time.perf_counter() - t0
        recorded = json.loads((Path(__file__).parent / "golden" / "suite-n4.json").read_text())
        rows = [
            {"check": c.name, "tolerance": c.tolerance, "levels": None if c.levels is None else list(c.levels),
             "pass": c.passed}
            for c in report.checks
        ]
        assert rows == [{k: r[k] for k in ("check", "tolerance", "levels", "pass")} for r in recorded]
        off = [
            (c.name, c.residual, r["residual"])
            for c, r in zip(report.checks, recorded)
            if abs(c.residual - r["residual"]) > max(1e-12, 1e-9 * abs(r["residual"]))
        ]
        assert not off
        seconds = [c.seconds for c in report.checks]
        assert min(seconds) > 0 and sum(seconds) <= wall


class TestToleranceOverrides:
    @pytest.mark.parametrize(
        "override", [{"comutator": 1e-30}, {"commutator": math.nan}, {"commutator": math.inf}, {"commutator": -1.0},
                     {"commutator": 0.0}],
    )
    def test_rejected_before_the_space_is_built(self, monkeypatch, override):
        def no_build(n_max):
            raise AssertionError("the space was built")

        monkeypatch.setattr(verify, "orthonormalize", no_build)
        with pytest.raises(ValueError, match="valid groups: commutator, restrictive"):
            run_suite(n_max=4, tolerances=override)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_c_rejected_before_the_space_is_built(self, monkeypatch, c):
        def no_build(n_max):
            raise AssertionError("the space was built")

        monkeypatch.setattr(verify, "orthonormalize", no_build)
        with pytest.raises(ValueError, match="c must be finite"):
            run_suite(n_max=4, c=c)

    def test_valid_override_is_applied(self, ops4):
        report = run_suite(ops=ops4, tolerances={"so3": 0.25})
        assert {c.tolerance for c in report.checks if c.name.startswith("so3:")} == {0.25}


class TestNegativeControl:
    def test_c_zero_breaks_diagonal_components(self, ops4):
        results = check_restrictive(ops4, c=0.0)
        failing = {r.name for r in results if not r.passed}
        for name in ("T~_11", "T~_22", "T~_33", "T~_44", "T~_55", "T~_66"):
            assert name in failing
        # off-diagonal components stay zero without the shift
        for r in results:
            if r.name.startswith("T~") and r.name[-2] != r.name[-1]:
                assert r.passed, r.name
            if r.name.startswith("R_"):
                assert r.passed, r.name

    def test_c_two_passes(self, ops4):
        results = check_restrictive(ops4, c=2.0)
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]


class TestSharedContext:
    def test_suite_builds_each_tensor_once(self, ops4, monkeypatch):
        # T~ once per suite; R one component per R row, each once, and never the whole tensor
        calls = []
        for name in ("tensor_T", "tensor_R"):
            build = getattr(algebra, name)
            monkeypatch.setattr(algebra, name, lambda *a, _b=build, _n=name, **k: calls.append((_n, a[1:])) or _b(*a, **k))
        once = sorted([("tensor_T", ())] + [("tensor_R", ((a, b),)) for a, b in combinations(range(1, 7), 2)])
        run_suite(ops=ops4)
        assert sorted(calls) == once
        calls.clear()
        results = check_restrictive(ops4, c=0.0)  # a standalone group builds its own
        assert sorted(calls) == once
        assert any(not r.passed for r in results)


class TestCasimirs:
    def test_values(self, ops4):
        results = {r.name: r for r in check_casimirs(ops4)}
        assert results["casimir:C2"].passed
        assert results["casimir:C2_dual"].residual == 0.0
        assert results["casimir:C3"].passed
        assert results["casimir:C3_ordering_constant"].passed

    def test_only_the_dual_contraction_is_vacuous(self, ops4):
        # sum_a g_aa R^aa reads the diagonal of an antisymmetric tensor, one shared
        # zero, so both sides of casimir:C2_dual are the zero operator at every N
        report = run_suite(ops=ops4)
        assert [c.name for c in report.checks if c.note == "vacuous"] == ["casimir:C2_dual"]

    def test_row_without_interior_level_is_not_evaluated(self, ops4):
        # k > n_max leaves no interior level (top < 0): the row is vacuous and its sides are never formed
        def sides(_):
            raise AssertionError("row function called")

        rows = [verify._Row("no_interior", sides, "commutator", ops4.space.n_max + 1)]
        (result,) = verify._evaluate(rows, verify._Ctx(ops4), None)
        assert (result.residual, result.note, result.levels, result.passed) == (0.0, "vacuous", (0, -1), True)


def _ordered(pairs):
    """Every ordered (a, b), a != b, of a table keyed a < b: the entries with a > b
    are explicit negated copies."""
    return {**pairs, **{(b, a): -m for (a, b), m in pairs.items()}}


def _T_reference(ops, c):
    full, space = _ordered({(g.a, g.b): m for g, m in ops.generators.items()}), ops.space
    out = {}
    for a in range(1, 7):
        for b in range(a, 7):
            acc = OperatorRep.zero(space)
            for d in range(1, 7):
                if d not in (a, b):
                    acc += metric(d, d) * full[(a, d)].anticommutator(full[(b, d)])
            if a == b:
                acc = acc + c * metric(a, b) * OperatorRep.identity(space)
            out[(a, b)] = out[(b, a)] = acc
    return out


def _R_reference(ops):
    full, out = _ordered({(g.a, g.b): m for g, m in ops.generators.items()}), {}
    for a in range(1, 7):
        for b in range(a + 1, 7):
            rest = tuple(x for x in range(1, 7) if x not in (a, b))
            acc = OperatorRep.zero(ops.space)
            for c, d, e, f in algebra.pair_partitions(rest):
                acc += (8 * algebra.epsilon_sign((a, b, c, d, e, f))) * full[(c, d)].anticommutator(full[(e, f)])
            out[(a, b)] = acc
    return out


def _chain_reference(ops):
    full = _ordered({(g.a, g.b): m for g, m in ops.generators.items()})
    return sum(
        metric(a, a) * metric(b, b) * full[(a, b)] @ sum(
            metric(c, c) * full[(b, c)] @ full[(c, a)] for c in range(1, 7) if c not in (a, b)
        )
        for a, b in permutations(range(1, 7), 2)
    )


def _identical(x, y):
    return (x.phase, x.grade, x.parity) == (y.phase, y.grade, y.parity) and np.array_equal(x.blocks, y.blocks)


@pytest.mark.parametrize("n_max", [4, 5])
def test_folded_signs_match_negated_copies(n_max):
    """T~, R, the cubic chain, P and the context's J read each M_ba through its stored
    M_ab and fold the sign into a scalar; negation is exact, so every stack equals,
    bit for bit, the same formula evaluated on explicit negated copies."""
    ops = OperatorSet.build(orthonormalize(n_max))
    t, t_ref = algebra.tensor_T(ops.generators), _T_reference(ops, 2.0)
    assert t.keys() == t_ref.keys() and all(_identical(t[k], t_ref[k]) for k in t_ref)
    r, r_ref = algebra.tensor_R(ops.generators), _R_reference(ops)
    assert all(_identical(r[k], r_ref[k]) for k in r_ref)
    ctx = verify._Ctx(ops)
    assert _identical(ctx.chain, _chain_reference(ops))
    J = _ordered(ops.J)
    p_ref = [-0.5 * sum(J[(i, k)].anticommutator(ops.X[k - 1]) for k in range(1, 5) if k != i) for i in range(1, 5)]
    assert all(_identical(p, q) for p, q in zip(build_P(ops.space, ops.J, ops.X), p_ref))
    assert all(_identical(ctx.J(i, j), J[(i, j)]) for i, j in J)
    assert ctx.J(2, 2).phase is None


class TestSpectrum:
    def test_residuals(self, ops4):
        results = check_spectrum(ops4)
        assert all(r.passed for r in results)

    def test_table_values(self, ops4):
        rows = spectrum_table(ops4.H)
        assert [r["n"] for r in rows] == [0, 1, 2, 3, 4]
        assert [r["energy"] for r in rows] == [0, 3, 8, 15, 24]
        assert [r["degeneracy"] for r in rows] == [1, 4, 9, 16, 25]
        assert max(r["residual"] for r in rows) <= 1e-10


@pytest.fixture(scope="module", params=[4, 5, 6, 7])
def ops_4_to_7(request):
    return OperatorSet.build(orthonormalize(request.param))


def _paired_rows(ops, shift, monkeypatch):
    """Run the suite on ``ops`` with every row's k raised by ``shift``, so each row compares the
    columns of levels <= ops.space.n_max - shift - k; the result of each row that returns
    (lhs, rhs) pairs, by name."""
    results = {}
    evaluate = verify._evaluate

    def shifted(rows, ctx, tolerances):
        def recording(fn, name):
            def fn_(c):
                out = fn(c)
                if isinstance(out, (float, tuple)):
                    return out
                results[name] = None
                return list(out)
            return fn_

        rows = [dataclasses.replace(row, fn=recording(row.fn, row.name), k=None if row.k is None else row.k + shift)
                for row in rows]
        checks = evaluate(rows, ctx, tolerances)
        results.update((c.name, c) for c in checks if c.name in results)
        return checks

    with monkeypatch.context() as m:
        m.setattr(verify, "_evaluate", shifted)
        run_suite(ops=ops)
    return results


def test_column_limited_rows_match_full_operators(ops_4_to_7, monkeypatch):
    """Every suite row that compares operator sides, on the row's interior columns, against the
    same row formed on the operators of n_max + 3, where truncation is three levels further
    off, and compared on the same columns: equal levels and pass flags, and residuals within
    the ``suite-n4.json`` rule.  A row whose k understates its raisings differs here."""
    n_max = ops_4_to_7.space.n_max
    limited = _paired_rows(ops_4_to_7, 0, monkeypatch)
    full = _paired_rows(OperatorSet.build(orthonormalize(n_max + 3)), 3, monkeypatch)
    assert list(limited) == list(full) and len(limited) == 204
    for name, c in limited.items():
        f = full[name]
        assert (c.levels, c.passed) == (f.levels, f.passed)
        assert abs(c.residual - f.residual) <= max(1e-12, 1e-9 * abs(f.residual)), name


@pytest.mark.parametrize("name, k", [("T", 2), ("h2", 1), ("K2", 2), ("L2", 2), ("XP", 2), ("PX", 2), ("chain", 3)])
def test_a_shared_product_is_read_up_to_its_declared_top_only(ops4, name, k):
    # a row on levels <= n_max - k forms it; a row one level higher raises, also once it is kept
    def reads(o):
        product = getattr(o, name)
        return [(product[(1, 1)] if name == "T" else product, o.zero)]  # T~ is a dict of components

    ctx = verify._Ctx(ops4)
    (result,) = verify._evaluate([verify._Row("reads", reads, "restrictive", k)], ctx, None)
    assert result.levels == (0, 4 - k) and name in ctx.shared
    with pytest.raises(ValueError, match=f"on levels <= {5 - k} reads {name}, sound on levels <= {4 - k} only"):
        verify._evaluate([verify._Row("reads", reads, "restrictive", k - 1)], ctx, None)
    assert ctx.top is None


def test_commutator_and_covariance_rows_read_only_their_interior_columns(monkeypatch):
    # at N=7 every comm: residual compares the columns of levels <= n_max - 2 and every
    # covariance:T residual those of levels <= n_max - 3; a row with one raising that reads
    # T~, sound up to n_max - 2 only, raises
    n_max = 7
    ctx = verify._Ctx(OperatorSet.build(orthonormalize(n_max)))
    tops = []
    residual = verify.rel_residual

    def recording(lhs, rhs, top):
        tops.append(top)
        return residual(lhs, rhs, top)

    monkeypatch.setattr(verify, "rel_residual", recording)
    verify.check_commutators(ctx)
    assert tops == [n_max - 2] * (105 + 6 + 6 + 16)
    tops.clear()
    verify.check_covariance(ctx)
    assert tops == [n_max - 3] * (15 * 21)
    reads_t = verify._Row("reads_T", lambda o: [(o.T[(1, 1)], o.zero)], "restrictive", 1)
    fresh = verify._Ctx(ctx.ops)
    with pytest.raises(ValueError, match="reads T, sound on levels <= 5 only"):
        verify._evaluate([reads_t], fresh, None)
    assert fresh.top is None and not fresh.shared


def test_spectrum_table_matches_dense_eigenvalues(ops_4_to_7):
    """Per-level eigenvalues of H's level blocks against the level buckets of the
    eigenvalues of the dense H."""
    space = ops_4_to_7.space
    dense = np.linalg.eigvalsh(ops_4_to_7.H.real)
    for row in spectrum_table(ops_4_to_7.H):
        bucket = dense[space.level_slice(row["n"])]
        assert abs(row["measured"] - bucket.mean()) <= 1e-13
        assert abs(row["residual"] - np.abs(bucket - row["energy"]).max()) <= 1e-13


def test_a_perturbed_H_fails_spectrum_by_its_residual(ops4):
    # lift level 1's eigenvalues from 3 onto level 2's energy 8: a misassigned level
    # shows as a residual, with no separate level-assignment test
    lift = level_vector(ops4.space, lambda n: 5.0 if n == 1 else 0.0)[:, None] * OperatorRep.identity(ops4.space)
    results = {r.name: r for r in check_spectrum(dataclasses.replace(ops4, H=ops4.H + lift))}
    assert not results["spectrum"].passed and results["spectrum"].note == ""
    assert results["spectrum"].residual == pytest.approx(5.0, abs=1e-12)
    assert results["su2:casimirs"].passed


class TestFRecursion:
    def test_scalar_products(self):
        assert f_scalar(1.0) * f_scalar(2.0) == pytest.approx(3.0, rel=1e-14)
        assert f_scalar(2.0) * f_scalar(3.0) == pytest.approx(5.0, rel=1e-14)

    def test_value_at_one_against_direct_gamma(self):
        direct = 2.0 * math.gamma(1.25) / math.gamma(0.75)
        assert f_scalar(1.0) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(1.4793375595943195, rel=1e-12)

    def test_matrix_chains(self, ops4):
        results = {r.name: r for r in check_f_recursion(ops4)}
        assert results["f:recursion"].passed
        assert results["f:boost_chain"].passed
        assert results["f:momentum_chain"].passed


class TestEigenstates:
    def test_empty_index_list_gives_ground_state(self, ops4):
        v = eigenstate_vector(ops4.a_plus, ())
        expected = np.zeros(ops4.space.dim)
        expected[0] = 1.0
        assert np.abs(v - expected).max() == 0.0

    def test_trace_contraction_vanishes(self, ops4):
        total = sum(build_eigenstates(ops4.a_plus, (mu, mu)) for mu in range(1, 5))
        assert total.coeff_norm() <= 1e-12

    def test_symmetry_under_index_swap(self, ops4):
        a = eigenstate_vector(ops4.a_plus, (1, 2))
        b = eigenstate_vector(ops4.a_plus, (2, 1))
        assert np.abs(a - b).max() <= 1e-13

    def test_states_are_harmonic_level_polynomials(self, ops4):
        poly = build_eigenstates(ops4.a_plus, (1, 2, 3))
        assert poly.degree == 3
        assert laplacian(poly).coeff_norm() <= 1e-10 * poly.coeff_norm()

    def test_rank_spans_level(self, ops4):
        results = {r.name: r for r in check_eigenstates(ops4)}
        for n in (1, 2, 3):
            assert results[f"eigen:rank_level{n}"].residual == 0.0

    def test_level_blocks_match_dense_products(self, ops_4_to_7):
        # every multiset of at most n_max - 1 raisings, against the dense matvecs A+ v
        dense = [a.real for a in ops_4_to_7.a_plus]
        for n in range(ops_4_to_7.space.n_max):
            for indices in combinations_with_replacement(range(1, 5), n):
                ref = np.zeros(ops_4_to_7.space.dim)
                ref[0] = 1.0
                for mu in reversed(indices):
                    ref = dense[mu - 1] @ ref
                v = eigenstate_vector(ops_4_to_7.a_plus, indices)
                assert np.abs(v - ref).max() <= 2e-15 * np.abs(ref).max()

    def test_harmonic_rows_match_the_polynomial_route(self, ops_4_to_7):
        # each level's row against Polynomial4 arithmetic: the states' polynomials by
        # vector_to_poly, and hilbert.laplacian; and the coefficient-column Laplacian against
        # hilbert.laplacian on random coefficients of degrees 0..6
        ops, rng = ops_4_to_7, np.random.default_rng(ops_4_to_7.space.n_max)
        rows = {r.name: r.residual for r in check_eigenstates(ops)}
        for n in range(1, min(4, ops.space.n_max - 1) + 1):
            polys = [build_eigenstates(ops.a_plus, ms) for ms in combinations_with_replacement(range(1, 5), n)]
            reference = max(laplacian(p).coeff_norm() / p.coeff_norm() for p in polys)
            assert abs(rows[f"eigen:harmonic_level{n}"] - reference) <= 1e-15
        for degree in range(7):
            coeffs = rng.standard_normal((len(monomials(degree)), 3))
            laplacians = verify._laplacian(coeffs, degree)
            for column, image in zip(coeffs.T, laplacians.T, strict=True):  # no rows below degree 2
                expected = laplacian(Polynomial4(dict(zip(monomials(degree), column))))
                got = Polynomial4(dict(zip(monomials(degree - 2), image)))
                assert (got - expected).coeff_norm() <= 1e-14 * max(1.0, expected.coeff_norm())

    def test_index_validation(self, ops4):
        with pytest.raises(IndexError):
            eigenstate_vector(ops4.a_plus, (0,))
        with pytest.raises(IndexError):
            eigenstate_vector(ops4.a_plus, (5,))
        with pytest.raises(ValueError):
            eigenstate_vector(ops4.a_plus, (1,) * 4)  # needs n <= n_max - 1


def _outside_raising_reference(K, L):
    """``ladder:strictly_raising`` by level blocks: the largest norm of K_i - i L_i over its blocks
    (t, j) with t != j + 1, through ``block`` and ``math.hypot``."""
    levels = range(K[0].space.n_max + 1)
    return max(
        math.hypot(*(np.linalg.norm(a.block(t, j)) for t in levels for j in levels if t != j + 1))
        for a in (k - 1j * l for k, l in zip(K, L))
    )


def test_strictly_raising_matches_the_block_route(ops_4_to_7):
    # on the built operators (round-off sized), and with a random entry of K_1's grade in every
    # level block, which the row must find at its full size
    ops = ops_4_to_7
    h = level_vector(ops.space, lambda n: n + 1.0)
    rng = np.random.default_rng(ops.space.n_max)
    planted = OperatorRep.from_matrix(ops.space, 1e-3 * definite_grade_matrix(ops.space, rng, 8))
    for K in (ops.K, [ops.K[0] + planted, *ops.K[1:]]):
        L = [-1j * (k * h - h[:, None] * k) for k in K]  # the row's commutator form of L
        row = {r.name: r for r in verify.check_ladder(dataclasses.replace(ops, K=K))}["ladder:strictly_raising"]
        reference = _outside_raising_reference(K, L)
        assert abs(row.residual - reference) <= 1e-14 * reference
    assert reference > 1e-4


class TestSpinDemo:
    def test_spin_half_restriction_exact(self):
        results = {r.name: r for r in so3_demo()}
        assert results["so3:spin_half_restriction"].residual == 0.0

    def test_spin_one_violates(self):
        results = {r.name: r for r in so3_demo()}
        assert results["so3:spin_one_violation"].passed
        spins = spin_matrices(2)
        t11 = spins[0] @ spins[0] * 2 - 0.5 * np.eye(3)
        assert np.linalg.norm(t11) > 0.5

    def test_covariance(self):
        results = {r.name: r for r in so3_demo()}
        assert results["so3:covariance"].residual <= 1e-14

    def test_spin_matrix_algebra(self):
        for two_s in (1, 2, 3):
            sx, sy, sz = spin_matrices(two_s)
            comm = sx @ sy - sy @ sx
            assert np.allclose(comm, 1j * sz, atol=1e-14)
            s = two_s / 2
            casimir = sx @ sx + sy @ sy + sz @ sz
            assert np.allclose(casimir, s * (s + 1) * np.eye(two_s + 1), atol=1e-13)


class TestCommutatorBattery:
    def test_count_and_pass(self, ops4):
        results = check_commutators(ops4)
        named = [r for r in results if r.name.startswith("comm:[M")]
        assert len(named) == 105
        assert all(r.passed for r in results)
