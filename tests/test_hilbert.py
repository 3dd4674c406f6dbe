import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphere_sga
from sphere_sga import hilbert
from sphere_sga.hilbert import (
    Polynomial4,
    TruncatedSpace,
    _inverse_sqrt,
    harmonic_basis,
    laplacian,
    monomial,
    monomial_integral_coefficient,
    monomials,
    orthonormalize,
    shift_map,
    sphere_inner,
    sphere_integral,
)

from conftest import shift_matrix

PI2 = math.pi**2


def basis_poly(space, n, j):
    """Polynomial of the j-th orthonormal level-n basis element: vector_to_poly of a unit vector."""
    return space.vector_to_poly(np.eye(space.dim)[space.offsets[n] + j], n)


def level_polys(space, n, count=None):
    """The first ``count`` (default: all) level-n basis polynomials."""
    return [basis_poly(space, n, j) for j in range(space.level_dim(n))[:count]]


def monomials_reference(degree):
    """Product-filter-sort definition of the descending-lex monomial order."""
    return sorted(
        (e for e in product(range(degree + 1), repeat=4) if sum(e) == degree),
        reverse=True,
    )


def harmonic_basis_reference(n):
    """Fraction Gauss-Jordan nullspace of the Laplacian: the slow, independent oracle.

    The Laplacian maps degree-n monomials to degree-(n-2) monomials; its
    reduced row echelon form gives one nullspace vector per free column, in
    monomial order, which is scaled to a primitive integer vector.
    """
    src = monomials_reference(n)
    dst = {m: i for i, m in enumerate(monomials_reference(n - 2))}
    a = [[Fraction(0)] * len(src) for _ in dst]
    for j, expts in enumerate(src):
        for i in range(4):
            if expts[i] >= 2:
                t = list(expts)
                t[i] -= 2
                a[dst[tuple(t)]][j] += expts[i] * (expts[i] - 1)
    pivots = []
    for col in range(len(src)):
        r = len(pivots)
        piv = next((k for k in range(r, len(a)) if a[k][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for k in range(len(a)):
            if k != r and a[k][col] != 0:
                f = a[k][col]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(len(src)) if c not in pivots):
        v = [Fraction(0)] * len(src)
        v[free] = Fraction(1)
        for k, pc in enumerate(pivots):
            v[pc] = -a[k][free]
        lcm = math.lcm(*(x.denominator for x in v))
        ints = [int(x * lcm) for x in v]
        g = math.gcd(*ints)
        basis.append({m: c // g for m, c in zip(src, ints) if c})
    return basis


def harmonic_extension_reference(m):
    """Cauchy-Kovalevskaya series of one free monomial by repeated Laplacians.

    With a = m[0] in {0, 1} and m = x1^a q, h = sum_k (-1)^k (2K+a)!/(2k+a)!
    x1^(2k+a) Delta_234^k q, each Delta_234^k q formed by applying
    ``laplacian`` to the previous one, then divided by the gcd and sorted in
    descending key order.
    """
    a = m[0]
    top = (sum(m) - a) // 2
    scale = math.factorial(2 * top + a)
    f = monomial((0, m[1], m[2], m[3]))
    terms = {}
    for k in range(top + 1):
        s = (-1) ** k * (scale // math.factorial(2 * k + a))
        for (_, b, c, d), v in f:
            terms[(2 * k + a, b, c, d)] = s * v
        # x1 does not occur in f, so the four-variable Laplacian is Delta_234
        f = laplacian(f)
    g = math.gcd(*terms.values())
    return Polynomial4({e: terms[e] // g for e in sorted(terms, reverse=True)})


@lru_cache(maxsize=None)
def integral_reference(expts):
    """Integral of x^expts over the unit three-sphere in units of pi^2, as a Fraction.

    2 Gamma(b1)..Gamma(b4) / Gamma(b1+..+b4) with b_i = (e_i + 1)/2: zero
    unless every e_i = 2 k_i is even, and then Gamma(k + 1/2)/sqrt(pi) is the
    product prod_{i<k} (i + 1/2) and Gamma(b1+..+b4) = (K+1)! with K = sum k_i.
    """
    if any(e % 2 for e in expts):
        return Fraction(0)
    value = Fraction(2)
    for e in expts:
        for i in range(e // 2):
            value *= i + Fraction(1, 2)
    return value / math.factorial(sum(expts) // 2 + 1)


def gram_reference(d1, d2):
    """Entry-by-entry sphere-integral Gram of monomials(d1) against monomials(d2)."""
    rows, cols = monomials_reference(d1), monomials_reference(d2)
    g = np.empty((len(rows), len(cols)))
    for i, ea in enumerate(rows):
        for j, eb in enumerate(cols):
            merged = tuple(x + y for x, y in zip(ea, eb))
            g[i, j] = float(integral_reference(merged))
    return g * math.pi**2


class TestPolynomial4:
    def test_zero_polynomial(self):
        z = Polynomial4()
        assert z.is_zero()
        assert z.degree == -1

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            Polynomial4({(1, 0, 0, 0): 1, (2, 0, 0, 0): 1})

    def test_arithmetic(self):
        p = monomial((1, 0, 0, 0)) + monomial((0, 1, 0, 0))
        q = p * p
        assert q.coeffs == {(2, 0, 0, 0): 1, (1, 1, 0, 0): 2, (0, 2, 0, 0): 1}
        assert (p - p).is_zero()
        assert (2 * p).coeffs == {(1, 0, 0, 0): 2, (0, 1, 0, 0): 2}

    def test_evaluate(self):
        p = monomial((2, 0, 0, 0)) - monomial((0, 2, 0, 0))
        assert p((3.0, 2.0, 0.0, 0.0)) == pytest.approx(5.0)

    def test_conjugate(self):
        p = monomial((1, 0, 0, 0), 1 + 2j)
        assert p.conjugate().coeffs == {(1, 0, 0, 0): 1 - 2j}

    def test_json_writes_non_finite_coefficients_as_null(self):
        p = Polynomial4({(1, 0, 0, 0): math.nan, (0, 1, 0, 0): complex(0.5, -math.inf)})
        text = p.to_json()
        assert "NaN" not in text and "Infinity" not in text
        terms = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-standard constant {c}"))
        assert terms == [
            {"exponents": [1, 0, 0, 0], "re": None, "im": 0},
            {"exponents": [0, 1, 0, 0], "re": 0.5, "im": None},
        ]
        assert len(text.splitlines()) == len(terms) + 2  # one term per line inside the brackets


class TestLaplacian:
    def test_square_monomial(self):
        assert laplacian(monomial((2, 0, 0, 0))).coeffs == {(0, 0, 0, 0): 2}

    def test_mixed_monomial_is_harmonic(self):
        assert laplacian(monomial((1, 1, 0, 0))).is_zero()

    def test_difference_of_squares_is_harmonic(self):
        p = monomial((2, 0, 0, 0)) - monomial((0, 2, 0, 0))
        assert laplacian(p).is_zero()

    def test_low_degree(self):
        assert laplacian(monomial((1, 0, 0, 0))).is_zero()
        assert laplacian(monomial((0, 0, 0, 0))).is_zero()


class TestShiftMap:
    def test_x1_d2_on_degree_two(self):
        # x2^2 -> 2 x1 x2 and x2 y -> x1 y; every source without x2 drops out
        m = shift_matrix(2, (1, -1, 0, 0), 2)
        deg2 = monomials(2)
        assert m.dtype == np.int64 and m.shape == (10, 10)
        assert {(deg2[r], deg2[c]): int(m[r, c]) for r, c in zip(*np.nonzero(m))} == {
            ((1, 1, 0, 0), (0, 2, 0, 0)): 2,
            ((2, 0, 0, 0), (1, 1, 0, 0)): 1,
            ((1, 0, 1, 0), (0, 1, 1, 0)): 1,
            ((1, 0, 0, 1), (0, 1, 0, 1)): 1,
        }

    def test_multiplication_has_unit_coefficients_and_raises_the_degree(self):
        m = shift_matrix(1, (0, 0, 1, 0))
        deg1, deg2 = monomials(1), monomials(2)
        assert m.shape == (10, 4)
        assert {(deg2[r], deg1[c]): int(m[r, c]) for r, c in zip(*np.nonzero(m))} == {
            ((1, 0, 1, 0), (1, 0, 0, 0)): 1,
            ((0, 1, 1, 0), (0, 1, 0, 0)): 1,
            ((0, 0, 2, 0), (0, 0, 1, 0)): 1,
            ((0, 0, 1, 1), (0, 0, 0, 1)): 1,
        }


    def test_a_shift_may_lower_only_the_exponent_of_its_coefficient(self):
        for delta, k in (((1, -1, 0, 0), None), ((1, -1, 0, 0), 3), ((2, -2, 0, 0), 2)):
            with pytest.raises(ValueError, match="lowers an exponent"):
                shift_matrix(3, delta, k)

    def test_steps_of_one_call_change_the_degree_alike_and_each_has_one_k(self):
        with pytest.raises(ValueError, match="different amounts"):
            shift_map(3, [(1, 0, 0, 0), (1, -1, 0, 0)], [None, 2], np.eye(20))
        with pytest.raises(ValueError, match="shorter"):
            shift_map(3, [(1, 0, 0, 0), (0, 1, 0, 0)], [None], np.eye(20))

    def test_placing_rows_gives_the_bytes_of_the_product_with_the_matrix(self):
        # each row of the map has at most one term, so the product rounds each entry once; the
        # steps of one call are placed together, each as it would be on its own
        rng = np.random.default_rng(5)
        for n in range(9):
            v = rng.standard_normal((len(monomials(n)), 7))
            for steps in ((((0, 1, 0, 0), None), ((1, 0, 0, 0), None)),
                          (((1, -1, 0, 0), 2), ((0, 0, -1, 1), 3), ((1, 0, -1, 0), 3)), (((1, 0, 1, -1), 4),)):
                got = shift_map(n, [delta for delta, _ in steps], [k for _, k in steps], v)
                assert got.dtype == v.dtype and got.shape[0] == len(steps)
                for image, (delta, k) in zip(got, steps):
                    assert image.tobytes() == (shift_matrix(n, delta, k).astype(float) @ v).tobytes()


def column_polys(n, matrix):
    """The polynomials of the columns of a matrix over monomials(n), with Python int coefficients."""
    return [Polynomial4(dict(zip(monomials(n), column))) for column in matrix.T.tolist()]


# sha256 of harmonic_basis(n).tobytes(): exact integers, so independent of BLAS and its threads
BASIS_SHA256 = {
    0: "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    1: "b32ccb915e3d58f1bd6613f3139eaa1f4a0ef5dcf27fb6dcf37690c86b922624",
    2: "9724517540e485244986b743ea8c59a572cacf0724882f7c3c5790db7e1d2a8f",
    3: "8472c9c8bd5859be8e51575ced32cf91fe6f2c45647fb63eb29e229de6aca4ac",
    4: "5ad216106987cb4ba9f812533673733e4f828614f6a6b359a66671e4a70aa670",
    5: "b3dfa23ca8b46e35da4c44b418aa1baa390b99f9588e158d5a49ac9df804c03b",
    6: "9ff5bab0294cc1dd5fb36f672ceca439f2093cea2fa53d2abf133a73d75c1b3b",
    7: "823e7509c7b54ad89544f5103a6efe045844cbbdaf2bd8fdad0d341ac691f534",
    8: "c2ccd1dfeb48df2f65bc26f4418c9d582eb256f2b7be33f1b8821d5f31810783",
    9: "fb800be477d6ae005ba12c36e2eabe160c36fbd06a19ffa2ebc88352d4295133",
    10: "25a7f1b8ac42a44b8205eda52a64f38882cec44fdb921f5aac0a560d91b525bc",
    11: "f1eeef4a9d5c35ef00e93a23aa5bee895c04125d930d3ef1f835a43537498d5a",
    12: "00bc20ce1e7a14c607d45f40847d34107591c971ed1a3e186354bd981d6cd32e",
    13: "bb2f0417d0ff7c04d683122dbc60c6dff6a08ea7d167da39001995130022ac5b",
    14: "530c9f27d08ce37e46ed360bf9e61159807136fc0ea940eefb8cbfdb8bd727c7",
}


class TestHarmonicBasis:
    @pytest.mark.parametrize("n", range(7))
    def test_dimension(self, n):
        b = harmonic_basis(n)
        assert b.dtype == np.int64 and b.shape == (len(monomials(n)), (n + 1) ** 2)

    def test_degree_zero_is_constant(self):
        assert harmonic_basis(0).tolist() == [[1]]

    def test_degree_one_is_coordinates(self):
        assert harmonic_basis(1).tolist() == np.eye(4, dtype=int).tolist()

    @pytest.mark.parametrize("n", [*range(7), 12, 14])
    def test_exact_harmonicity(self, n):
        free = [m for m in monomials(n) if m[0] < 2]
        basis = column_polys(n, harmonic_basis(n))
        assert len(basis) == len(free)
        for m, p in zip(free, basis):
            coeffs = p.coeffs
            assert laplacian(p).is_zero()
            assert all(type(c) is int for c in coeffs.values())
            assert math.gcd(*coeffs.values()) == 1
            assert coeffs[m] > 0
            # the x1^0 / x1^1 part of p is exactly its free monomial
            assert [e for e in coeffs if e[0] < 2] == [m]

    @pytest.mark.parametrize("n", range(10))
    def test_matches_elimination_reference(self, n):
        assert [p.coeffs for p in column_polys(n, harmonic_basis(n))] == harmonic_basis_reference(n)

    @pytest.mark.parametrize("n", range(15))
    def test_matches_laplacian_series_reference(self, n):
        monos = monomials(n)
        reference = [harmonic_extension_reference(m).coeffs for m in monos if m[0] < 2]
        assert harmonic_basis(n).T.tolist() == [[ref.get(e, 0) for e in monos] for ref in reference]

    @pytest.mark.parametrize("n", range(15))
    def test_bytes_are_pinned(self, n):
        assert hashlib.sha256(harmonic_basis(n).tobytes()).hexdigest() == BASIS_SHA256[n]

    @pytest.mark.parametrize("d", range(17))
    def test_monomial_order_matches_reference(self, d):
        assert monomials(d) == monomials_reference(d)

    def test_monomials_returns_a_fresh_list(self):
        first = monomials(3)
        first.clear()
        assert len(monomials(3)) == 20

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            harmonic_basis(-1)


class TestSphereIntegral:
    def test_constant(self):
        assert sphere_integral(monomial((0, 0, 0, 0))) == pytest.approx(2 * PI2, rel=1e-15)

    def test_odd_vanishes_exactly(self):
        assert sphere_integral(monomial((1, 0, 0, 0))) == 0.0
        assert sphere_integral(monomial((1, 2, 0, 0))) == 0.0

    def test_square(self):
        assert sphere_integral(monomial((2, 0, 0, 0))) == pytest.approx(PI2 / 2, rel=1e-15)

    def test_fourth_power(self):
        assert sphere_integral(monomial((4, 0, 0, 0))) == pytest.approx(PI2 / 4, rel=1e-15)

    def test_mixed_squares(self):
        assert sphere_integral(monomial((2, 2, 0, 0))) == pytest.approx(PI2 / 12, rel=1e-15)

    def test_rational_coefficient_values(self):
        assert monomial_integral_coefficient((0, 0, 0, 0)) == Fraction(2)
        assert monomial_integral_coefficient((2, 0, 0, 0)) == Fraction(1, 2)
        assert monomial_integral_coefficient((4, 0, 0, 0)) == Fraction(1, 4)

    @pytest.mark.parametrize("d", range(17))
    def test_coefficients_match_gamma_product_reference(self, d):
        for e in monomials_reference(d):
            assert monomial_integral_coefficient(e) == integral_reference(e)

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(*[st.integers(min_value=0, max_value=5)] * 4),
        st.permutations([0, 1, 2, 3]),
    )
    def test_permutation_invariance(self, expts, perm):
        shuffled = tuple(expts[k] for k in perm)
        assert monomial_integral_coefficient(expts) == monomial_integral_coefficient(shuffled)

    def test_inner_product_conjugates_first_argument(self):
        p = monomial((1, 0, 0, 0), 1j)
        q = monomial((1, 0, 0, 0), 1.0)
        assert sphere_inner(p, q) == pytest.approx(-1j * PI2 / 2)


class TestTruncatedSpace:
    def test_dimensions(self, space4):
        assert space4.dim == sum((n + 1) ** 2 for n in range(5))
        assert space4.offsets == (0, 1, 5, 14, 30, 55)
        assert orthonormalize(3).dim == 30

    def test_spaces_compare_by_identity(self):
        # the fields are arrays and caches, so two spaces built alike are distinct objects
        s = orthonormalize(2)
        assert (orthonormalize(2) == orthonormalize(2)) is False
        assert (s == s) is True

    def test_level_zero_normalization(self):
        space = orthonormalize(0)
        (p,) = level_polys(space, 0)
        coeff = p.coeffs[(0, 0, 0, 0)]
        assert coeff == pytest.approx(1 / math.sqrt(2 * PI2), rel=1e-14)

    def test_level_one_normalization(self):
        space = orthonormalize(1)
        p = basis_poly(space, 1, 0)
        assert set(p.coeffs) == {(1, 0, 0, 0)}
        assert p.coeffs[(1, 0, 0, 0)] == pytest.approx(1 / math.sqrt(PI2 / 2), rel=1e-14)

    def test_gram_identity_per_level(self, space4):
        for n in range(space4.n_max + 1):
            b = space4.basis_matrix(n)
            gram = b.T @ space4.gram_matrix(n, n) @ b
            assert np.abs(gram - np.eye(b.shape[1])).max() <= 1e-12

    @pytest.mark.parametrize("degree", range(0, 21, 2))
    def test_even_integrals_equal_the_integral_ratio_entry_for_entry(self, degree):
        # one shared denominator per degree, the same correctly rounded int / int per entry
        keys, values = hilbert._even_integrals(degree)
        halves = sorted(monomials(degree // 2))  # ascending, as the linear keys of their doubles
        assert keys.tolist() == [sum(2 * e * w for e, w in zip(k, hilbert._key_weights(degree))) for k in halves]
        ratios = [hilbert._integral_ratio(k) for k in halves]
        assert [v.hex() for v in values.tolist()] == [(num / den).hex() for num, den in ratios]

    @pytest.mark.parametrize("d1, d2", product(range(9), repeat=2))
    def test_gram_matches_entrywise_reference(self, d1, d2):
        space = TruncatedSpace(n_max=0, bases=[], offsets=(), dim=0)
        gram, reference = space.gram_matrix(d1, d2), gram_reference(d1, d2)
        assert gram.shape == reference.shape and gram.tobytes() == reference.tobytes()

    def test_frontier_level_twelve(self):
        space = orthonormalize(12)
        assert space.dim == 819
        for n in range(13):
            b = space.basis_matrix(n)
            gram = b.T @ space.gram_matrix(n, n) @ b
            assert np.abs(gram - np.eye(b.shape[1])).max() <= 1e-12

    def test_gram_identity_via_polynomials(self):
        space = orthonormalize(2)
        for n in range(3):
            basis = level_polys(space, n)
            for i, p in enumerate(basis):
                for j, q in enumerate(basis):
                    expected = 1.0 if i == j else 0.0
                    assert sphere_inner(p, q) == pytest.approx(expected, abs=2e-13)

    def test_cross_level_orthogonality(self, space4):
        for m in range(space4.n_max + 1):
            for n in range(m + 1, space4.n_max + 1):
                worst = max(
                    abs(sphere_inner(p, q))
                    for p in level_polys(space4, m, 3)
                    for q in level_polys(space4, n, 3)
                )
                if (n - m) % 2 == 1:
                    assert worst == 0.0
                else:
                    assert worst <= 1e-12

    def test_orthonormal_basis_still_harmonic(self, space4):
        for n in range(space4.n_max + 1):
            for p in level_polys(space4, n, 4):
                assert laplacian(p).coeff_norm() <= 1e-12 * max(1.0, p.coeff_norm())

    def test_vector_roundtrip(self, space4):
        p = basis_poly(space4, 3, 5)
        coeffs = np.array([p.coeffs.get(m, 0.0) for m in monomials(3)])
        v = np.zeros(space4.dim)
        v[space4.level_slice(3)] = space4.basis_matrix(3).T @ space4.gram_matrix(3, 3) @ coeffs
        assert np.abs(v[space4.level_slice(3)] - np.eye(16)[5]).max() <= 1e-12
        q = space4.vector_to_poly(v, 3)
        assert (p - q).coeff_norm() <= 1e-12

    def test_json_export(self, tmp_path, space4):
        path = tmp_path / "basis.json"
        space4.export_json(path)
        doc = json.loads(path.read_text())
        assert doc["n_max"] == 4
        assert doc["dimension"] == 55
        assert len(doc["levels"]) == 5
        assert len(doc["levels"][2]) == 9
        term = doc["levels"][1][0][0]
        assert set(term) == {"exponents", "re", "im"}

    def test_inverse_sqrt_rejects_singular(self):
        with pytest.raises(ValueError):
            _inverse_sqrt([np.array([[[1.0, 1.0], [1.0, 1.0]]])], [np.zeros(1, dtype=int)])


def in_class(n):
    """Boolean mask over harmonic_basis(n): True where the monomial has its column head's
    exponent parities."""
    monos = np.array(monomials(n))
    parity = [tuple(e) for e in monos % 2]
    heads = parity[len(monos) - (n + 1) ** 2:]
    return np.array([[p == h for h in heads] for p in parity])


def dense_level_lowdin(n):
    """The level-n basis by symmetric orthonormalization of the whole level: two passes of
    b -> b (b^T G b)^(-1/2), each from one dense eigh of the (n+1)^2 x (n+1)^2 level Gram."""
    b = harmonic_basis(n).astype(float)
    gram = TruncatedSpace(n_max=0, bases=[], offsets=(), dim=0).gram_matrix(n, n)
    for _ in range(2):
        w, u = np.linalg.eigh(b.T @ gram @ b)
        b = b @ (u @ np.diag(w**-0.5) @ u.T)
    return b


def basis_digests(threads, levels):
    """sha256 of the bytes of orthonormalize(N).bases for each N in ``levels``, computed in a
    fresh interpreter on ``threads`` BLAS threads."""
    counts = {name: str(threads) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **counts, "PYTHONPATH": str(os.path.dirname(os.path.dirname(sphere_sga.__file__)))}
    code = (
        "import hashlib, sys\n"
        "from sphere_sga.hilbert import orthonormalize\n"
        "for n in map(int, sys.argv[1:]):\n"
        "    print(hashlib.sha256(b''.join(b.tobytes() for b in orthonormalize(n).bases)).hexdigest())\n"
    )
    done = subprocess.run([sys.executable, "-c", code, *map(str, levels)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestClassFrames:
    """orthonormalize runs Loewdin on each exponent-parity class block of a level on its own."""

    @pytest.mark.parametrize("n", range(13))
    def test_class_blocks_partition_the_level(self, n):
        blocks = hilbert._class_blocks(n)
        rows = sorted(i for r, _ in blocks.values() for i in r.ravel().tolist())
        cols = sorted(j for _, c in blocks.values() for j in c.ravel().tolist())
        assert rows == list(range(len(monomials(n)))) and cols == list(range((n + 1) ** 2))
        mask = in_class(n)
        for size, (r, c) in blocks.items():
            m = next(m for m in range(n + 1) if math.comb(m + 2, 2) == size)
            assert r.shape[1:] == (math.comb(m + 3, 3),) and c.shape[1:] == (size,)
            assert all(mask[np.ix_(ri, ci)].all() for ri, ci in zip(r, c))

    def test_entries_outside_a_column_class_are_exactly_zero(self):
        space = orthonormalize(10)
        for n in range(11):
            outside = space.basis_matrix(n)[~in_class(n)]
            assert outside.size == 0 or (outside == 0.0).all()

    @pytest.mark.parametrize("n", range(9))
    def test_agrees_with_dense_level_lowdin(self, n):
        # the frame is the same; only round-off differs, at most 3.3e-13 of the largest entry (n = 8)
        reference, b = dense_level_lowdin(n), orthonormalize(n).basis_matrix(n)
        mask = in_class(n)
        assert np.abs(b - reference)[mask].max() <= 1e-12 * np.abs(reference).max()

    def test_a_level_with_one_singular_class_block_raises(self, monkeypatch):
        exact = harmonic_basis

        def duplicated(n):
            b = exact(n)
            if n == 2:
                # heads x2^2 and x3^2 (columns 3 and 6) share the all-even class
                b[:, 6] = b[:, 3]
            return b

        monkeypatch.setattr(hilbert, "harmonic_basis", duplicated)
        with pytest.raises(ValueError, match="singular"):
            orthonormalize(3)

    def test_the_singular_guard_compares_eigenvalues_across_a_level(self, monkeypatch):
        # a one-column class block is well conditioned on its own, but 1e-7 of the scale of the
        # level's other blocks puts the level's eigenvalue ratio near 1e-14
        exact = harmonic_basis

        def shrunk(n):
            b = exact(n)
            return b * np.where(np.arange(b.shape[1]) == 0, 1e-7, 1.0) if n == 2 else b

        monkeypatch.setattr(hilbert, "harmonic_basis", shrunk)
        with pytest.raises(ValueError, match="singular"):
            orthonormalize(2)

    def test_basis_bytes_do_not_depend_on_blas_threads(self):
        # every class block is small enough that OpenBLAS runs it on one thread
        assert basis_digests(1, (8, 10)) == basis_digests(2, (8, 10))
