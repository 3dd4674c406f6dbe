import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sphere_sga import algebra, verify
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
from sphere_sga.hilbert import laplacian


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
        calls = []
        for name in ("tensor_T", "tensor_R"):
            build = getattr(algebra, name)
            monkeypatch.setattr(algebra, name, lambda *a, _b=build, _n=name, **k: calls.append(_n) or _b(*a, **k))
        run_suite(ops=ops4)
        assert sorted(calls) == ["tensor_R", "tensor_T"]
        calls.clear()
        results = check_restrictive(ops4, c=0.0)  # a standalone group builds its own
        assert sorted(calls) == ["tensor_R", "tensor_T"]
        assert any(not r.passed for r in results)


class TestCasimirs:
    def test_values(self, ops4):
        results = {r.name: r for r in check_casimirs(ops4)}
        assert results["casimir:C2"].passed
        assert results["casimir:C2_dual"].residual == 0.0
        assert results["casimir:C3"].passed
        assert results["casimir:C3_ordering_constant"].passed


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
        v = eigenstate_vector(ops4, ())
        expected = np.zeros(ops4.space.dim)
        expected[0] = 1.0
        assert np.abs(v - expected).max() == 0.0

    def test_trace_contraction_vanishes(self, ops4):
        total = sum(build_eigenstates(ops4, (mu, mu)) for mu in range(1, 5))
        assert total.coeff_norm() <= 1e-12

    def test_symmetry_under_index_swap(self, ops4):
        a = eigenstate_vector(ops4, (1, 2))
        b = eigenstate_vector(ops4, (2, 1))
        assert np.abs(a - b).max() <= 1e-13

    def test_states_are_harmonic_level_polynomials(self, ops4):
        poly = build_eigenstates(ops4, (1, 2, 3))
        assert poly.degree == 3
        assert laplacian(poly).coeff_norm() <= 1e-10 * poly.coeff_norm()

    def test_rank_spans_level(self, ops4):
        results = {r.name: r for r in check_eigenstates(ops4)}
        for n in (1, 2, 3):
            assert results[f"eigen:rank_level{n}"].residual == 0.0

    def test_index_validation(self, ops4):
        with pytest.raises(IndexError):
            eigenstate_vector(ops4, (0,))
        with pytest.raises(IndexError):
            eigenstate_vector(ops4, (5,))
        with pytest.raises(ValueError):
            eigenstate_vector(ops4, (1,) * 4)  # needs n <= n_max - 1


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
