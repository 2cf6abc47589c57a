import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kippenhahn import matrixpencil
from kippenhahn.exactnum import GaussianRational, ParseError, UniPoly
from kippenhahn.matrixpencil import (
    EigenError,
    HermitianMatrix,
    HermitianPencil,
    det_along_line,
    eigen_hermitian,
    format_pencil_text,
    parse_pencil_text,
    pencil_det,
    sample_numrange_boundary,
    support_function,
)
from kippenhahn.convexgeom import PencilBody
from kippenhahn.mpoly import parse_poly

V3 = ("x0", "x1", "x2")

APPENDIX_P = "x0^3 - 3/4*x2*x0^2 - 2*x1^2*x0 - 21/16*x2^2*x0 + 55/64*x2^3 - 3/2*x1^2*x2"


def eq3_pencil() -> HermitianPencil:
    K = HermitianMatrix([[0, -1, 0], [-1, 0, 1], [0, 1, 0]])
    L = HermitianMatrix(
        [
            [Fraction(-1, 4), Fraction(-1, 2), 1],
            [Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 2)],
            [1, Fraction(-1, 2), Fraction(-1, 4)],
        ]
    )
    return HermitianPencil(K, L)


def parabola_pencil() -> HermitianPencil:
    return HermitianPencil(
        HermitianMatrix([[0, 1], [1, 0]]), HermitianMatrix([[1, 0], [0, 0]])
    )


def random_pencil(rng, n) -> HermitianPencil:
    def herm():
        m = [[GaussianRational(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = GaussianRational(Fraction(rng.randint(-4, 4), 2))
            for j in range(i + 1, n):
                z = GaussianRational(
                    Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2)
                )
                m[i][j] = z
                m[j][i] = z.conjugate()
        return HermitianMatrix(m)

    return HermitianPencil(herm(), herm())


def sympy_matrix(M: HermitianMatrix) -> sympy.Matrix:
    return sympy.Matrix(
        M.n, M.n, lambda j, k: sympy.Rational(M[j, k].re) + sympy.I * sympy.Rational(M[j, k].im)
    )


def _zeros(n) -> HermitianMatrix:
    return HermitianMatrix([[0] * n for _ in range(n)])


def _inner(u, v) -> GaussianRational:
    """sum_i u_i * conj(v_i), computed on the (re, im) parts."""
    return GaussianRational(
        sum((x.re * y.re + x.im * y.im for x, y in zip(u, v)), Fraction(0)),
        sum((x.im * y.re - x.re * y.im for x, y in zip(u, v)), Fraction(0)),
    )


def _real_combination(terms, shift=0) -> GaussianRational:
    """shift + sum c * z over pairs (c, z) of a rational c and a Gaussian
    rational z, computed on the (re, im) parts."""
    return GaussianRational(
        shift + sum(c * z.re for c, z in terms), sum(c * z.im for c, z in terms)
    )


def _dual_boundary_point(P, x):
    """-(x1, x2) / h(x), the boundary point of the dual set on the ray
    through x: 1 + h of it is 0.  Needs h(x) < 0, an interior origin."""
    h = support_function(P, x)
    return (-float(x[0]) / h, -float(x[1]) / h)


_small = st.integers(-3, 3)
_gaussian = st.builds(GaussianRational, _small, _small)
_rational = st.fractions(-4, 4, max_denominator=6)


@st.composite
def _hermitian(draw, n):
    rows = [[GaussianRational(draw(_small)) for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            rows[j][k] = draw(_gaussian)
            rows[k][j] = rows[j][k].conjugate()
    return rows


@st.composite
def _definiteness_cases(draw):
    """Gram matrices B B^H of full and of deficient rank, Hermitian matrices
    with a shifted diagonal, and Hermitian matrices with a zero (0, 0) entry."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["gram", "shifted", "zero corner"]))
    if kind == "gram":
        r = draw(st.integers(1, n))  # r < n: singular
        B = [[draw(_gaussian) for _ in range(r)] for _ in range(n)]
        rows = [[_inner(bj, bk) for bk in B] for bj in B]
    else:
        rows = draw(_hermitian(n))
        if kind == "shifted":
            s = draw(st.integers(-4, 16))
            for j in range(n):
                rows[j][j] = GaussianRational(rows[j][j].re + s)
        else:
            rows[0][0] = GaussianRational(0)
    return HermitianMatrix(rows)


class TestHermitianMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            HermitianMatrix([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            HermitianMatrix([[GaussianRational(0, 1), 0], [0, 0]])

    def test_rejects_size_zero(self):
        for build in (
            lambda: HermitianMatrix([]),
            lambda: HermitianPencil(HermitianMatrix([]), HermitianMatrix([])),
            lambda: HermitianPencil.from_matrix([]),
        ):
            with pytest.raises(ValueError, match="matrix size 0 is below 1"):
                build()

    def test_accepts_conjugate_pairs(self):
        z = GaussianRational(1, 2)
        HermitianMatrix([[0, z], [z.conjugate(), 3]])

    def test_positive_definite_exact(self):
        assert HermitianMatrix.identity(3).is_positive_definite()
        assert not HermitianMatrix([[0, 1], [1, 0]]).is_positive_definite()
        z = GaussianRational(0, Fraction(1, 2))
        M = HermitianMatrix([[2, z], [z.conjugate(), 2]])
        assert M.is_positive_definite()

    @settings(max_examples=120, deadline=None)
    @given(_definiteness_cases())
    def test_positive_definite_is_sylvester(self, M):
        # oracle: every leading principal minor, each its own sympy determinant
        S = sympy_matrix(M)
        minors = [sympy.expand(S[:k, :k].det()) for k in range(1, M.n + 1)]
        assert all(d.is_real for d in minors)
        assert M.is_positive_definite() == all(d > 0 for d in minors)

    def test_positive_definite_rejects_nonreal_minor(self, monkeypatch):
        monkeypatch.setattr(matrixpencil, "_bareiss", lambda re, im, swap: iter([(1, 1)]))
        with pytest.raises(ValueError, match="not real"):
            HermitianMatrix.identity(2).is_positive_definite()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: st.tuples(_hermitian(n), _hermitian(n))),
        _rational,
        _rational,
        _rational,
    )
    def test_combine_exact_entries(self, KL, x1, x2, s):
        P = HermitianPencil(*(HermitianMatrix(rows) for rows in KL))
        M = P.combine_exact(x1, x2, s)
        assert M.n == P.n
        for j in range(P.n):
            for k in range(P.n):
                value = _real_combination(((x1, P.K[j, k]), (x2, P.L[j, k])), s * (j == k))
                assert M[j, k] == value


class TestPencilDet:
    def test_appendix_golden(self):
        assert pencil_det(eq3_pencil()) == parse_poly(APPENDIX_P, V3)

    def test_parabola(self):
        assert pencil_det(parabola_pencil()) == parse_poly("x0^2 + x0*x2 - x1^2", V3)

    def test_identity_only(self):
        P = HermitianPencil(_zeros(4), _zeros(4))
        assert pencil_det(P) == parse_poly("x0^4", V3)

    def test_homogeneous_of_degree_n(self):
        rng = random.Random(55)
        for n in (2, 3, 4):
            P = random_pencil(rng, n)
            assert pencil_det(P).homogeneous_degree() == n

    def test_complex_entries_real_determinant(self):
        rng = random.Random(56)
        P = random_pencil(rng, 3)
        p = pencil_det(P)
        assert all(isinstance(c, Fraction) for c in p.terms.values())

    def test_matches_sympy(self):
        x = sympy.symbols("x0 x1 x2")
        rng = random.Random(58)
        for n in range(1, 6):
            P = random_pencil(rng, n)
            M = x[0] * sympy.eye(n) + x[1] * sympy_matrix(P.K) + x[2] * sympy_matrix(P.L)
            # sympy's Gaussian elimination over the polynomial domain: the
            # default Bareiss on expressions takes seconds at n = 5
            ref = sympy.Poly(sympy.expand(M.det(method="domain-ge")), *x)
            got = {e: sympy.Rational(c.numerator, c.denominator) for e, c in pencil_det(P).terms.items()}
            assert got == dict(ref.terms())

    def test_large_pencils_match_sympy_values(self):
        rng = random.Random(59)
        points = [(Fraction(1, 2), Fraction(-3, 4)), (Fraction(2), Fraction(1, 3)), (Fraction(-1), Fraction(5))]
        for n in (6, 7):
            P = random_pencil(rng, n)
            p = pencil_det(P)
            K, L = sympy_matrix(P.K), sympy_matrix(P.L)
            for x1, x2 in points:
                ref = (sympy.eye(n) + sympy.Rational(x1) * K + sympy.Rational(x2) * L).det()
                val = p.evaluate((Fraction(1), x1, x2))
                assert sympy.expand(ref) == sympy.Rational(val.numerator, val.denominator)

    def test_safety_checks(self, monkeypatch):
        P = eq3_pencil()
        with monkeypatch.context() as m:
            m.setattr(matrixpencil, "_bareiss", lambda re, im, swap: iter([(1, 0), (1, 1)]))
            with pytest.raises(ValueError, match="not real"):
                pencil_det(P)
        with monkeypatch.context() as m:
            m.setattr(UniPoly, "interpolate", staticmethod(lambda ys: UniPoly([1] * len(ys))))
            with pytest.raises(ValueError, match="not homogeneous"):
                pencil_det(P)


class TestFromMatrix:
    def test_split_recomposes(self):
        rng = random.Random(57)
        n = 3
        A = [
            [
                GaussianRational(
                    Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2)
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        P = HermitianPencil.from_matrix(A)
        for j in range(n):
            for k in range(n):
                # K + iL, part by part
                K, L = P.K[j, k], P.L[j, k]
                assert GaussianRational(K.re - L.im, K.im + L.re) == A[j][k]


class TestEigen:
    def test_diagonal(self):
        r = eigen_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert r.eigenvalues == (1.0, 2.0, 3.0)

    def test_pauli_x(self):
        r = eigen_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(r.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_pauli_y(self):
        r = eigen_hermitian(np.array([[0, -1j], [1j, 0]]))
        assert np.allclose(r.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            M = (B + B.conj().T) / 2
            r = eigen_hermitian(M)
            assert r.residual <= 1e-11 * max(1.0, np.abs(M).max())
            V = np.array(r.eigenvectors).T
            assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-12
            recon = V @ np.diag(r.eigenvalues) @ V.conj().T
            assert np.abs(recon - M).max() <= 1e-10

    def test_degenerate_spectrum(self):
        r = eigen_hermitian(np.eye(4))
        assert np.allclose(r.eigenvalues, 1.0)
        V = np.array(r.eigenvectors).T
        assert np.abs(V.conj().T @ V - np.eye(4)).max() <= 1e-10
        # a repeated eigenvalue next to a distinct one, in a random basis
        rng = np.random.default_rng(6)
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        U, _ = np.linalg.qr(B)
        M = U @ np.diag([1.0, 1.0, 2.0]) @ U.conj().T
        r = eigen_hermitian(M)
        assert np.allclose(r.eigenvalues, [1.0, 1.0, 2.0], atol=1e-12)
        assert r.residual <= 1e-11
        V = np.array(r.eigenvectors).T
        assert np.abs(V.conj().T @ V - np.eye(3)).max() <= 1e-12

    def test_rejects_nonhermitian(self):
        with pytest.raises(EigenError):
            eigen_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        for bad in (math.nan, math.inf):
            with pytest.raises(EigenError):
                eigen_hermitian(np.array([[bad, 1.0], [1.0, 0.0]]))


class TestSupportFunction:
    def test_parabola_values(self):
        P = parabola_pencil()
        assert abs(support_function(P, (1, 0)) + 1.0) < 1e-12
        assert abs(support_function(P, (0, 1))) < 1e-12

    def test_eq3_sqrt2(self):
        assert abs(support_function(eq3_pencil(), (1, 0)) + math.sqrt(2)) < 1e-10

    def test_zero_direction(self):
        with pytest.raises(ValueError):
            support_function(parabola_pencil(), (0, 0))
        for x in ((math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                support_function(parabola_pencil(), x)

    def test_positive_homogeneity(self):
        rng = random.Random(58)
        P = eq3_pencil()
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            c = rng.uniform(0.1, 5.0)
            x = (math.cos(theta), math.sin(theta))
            h1 = support_function(P, x)
            h2 = support_function(P, (c * x[0], c * x[1]))
            assert abs(h2 - c * h1) < 1e-9 * max(1.0, c)

    def test_toeplitz_bound(self):
        rng = np.random.default_rng(59)
        P = eq3_pencil()
        Kf, Lf = P._floats()
        for _ in range(50):
            eta = rng.normal(size=3) + 1j * rng.normal(size=3)
            eta /= np.linalg.norm(eta)
            y = (
                float(np.real(np.vdot(eta, Kf @ eta))),
                float(np.real(np.vdot(eta, Lf @ eta))),
            )
            theta = rng.uniform(0, 2 * math.pi)
            x = (math.cos(theta), math.sin(theta))
            assert x[0] * y[0] + x[1] * y[1] >= support_function(P, x) - 1e-9


class TestBoundarySampling:
    def test_support_line_contract(self):
        P = eq3_pencil()
        for theta, y, h in sample_numrange_boundary(P, 48):
            assert abs(math.cos(theta) * y[0] + math.sin(theta) * y[1] - h) < 1e-9

    def test_point_numrange(self):
        P = HermitianPencil(HermitianMatrix([[2]]), HermitianMatrix([[-3]]))
        pts = {y for _, y, _ in sample_numrange_boundary(P, 8)}
        assert all(abs(a - 2) < 1e-12 and abs(b + 3) < 1e-12 for a, b in pts)

    def test_rounded_triangle_extent(self):
        # shape check only: the cloud fits the figure's frame
        pts = [y for _, y, _ in sample_numrange_boundary(eq3_pencil(), 240)]
        xs = [a for a, _ in pts]
        ys = [b for _, b in pts]
        assert max(map(abs, xs)) < 2.5 and max(map(abs, ys)) < 2.5

    def test_needs_three_directions(self):
        with pytest.raises(ValueError):
            sample_numrange_boundary(eq3_pencil(), 2)


class TestSpectrahedron:
    """Membership in S = {x : 1 + x1 K + x2 L >= 0} is the sign of
    ``PencilBody.margin``, 1 + h(x)."""

    def test_origin_always_strictly_inside(self):
        rng = random.Random(60)
        for n in (1, 2, 3):
            body = PencilBody(random_pencil(rng, n))
            assert body.margin(0.0, 0.0) == 1.0
            assert body.interior_exact(Fraction(0), Fraction(0))

    def test_parabola_boundary(self):
        body = PencilBody(parabola_pencil())
        assert abs(body.margin(0.0, -1.0)) <= 1e-9
        assert not body.interior_exact(Fraction(0), Fraction(-1))

    def test_outside_points(self):
        P = eq3_pencil()
        for theta in (0.3, 1.8, 4.0):
            x = (math.cos(theta), math.sin(theta))
            s = _dual_boundary_point(P, x)
            assert PencilBody(P).margin(1.05 * s[0], 1.05 * s[1]) < -1e-9


class TestDualBoundary:
    def test_parabola(self):
        P = parabola_pencil()
        assert np.allclose(_dual_boundary_point(P, (1, 0)), (1.0, 0.0), atol=1e-10)
        assert np.allclose(_dual_boundary_point(P, (-1, 0)), (-1.0, 0.0), atol=1e-10)

    def test_eq3(self):
        s = _dual_boundary_point(eq3_pencil(), (1, 0))
        assert np.allclose(s, (1 / math.sqrt(2), 0.0), atol=1e-10)

    def test_boundary_has_zero_min_eigenvalue(self):
        rng = random.Random(61)
        P = eq3_pencil()
        for _ in range(25):
            theta = rng.uniform(0, 2 * math.pi)
            s = _dual_boundary_point(P, (math.cos(theta), math.sin(theta)))
            lam = 1.0 + support_function(P, s)
            assert abs(lam) <= 1e-9


@st.composite
def _line_cases(draw):
    """Pairs (A, B) of Hermitian matrices, n = 1..6, with entries over mixed
    denominators: general, with a zero (0, 0) entry in both (each sample of
    det(A + tB) needs a row swap), or both Gram matrices of rank below n."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["general", "zero corner", "rank deficient"]))
    mixed = st.builds(GaussianRational, _rational, _rational)

    def herm():
        if kind == "rank deficient":
            C = [[draw(mixed) for _ in range(draw(st.integers(0, n - 1)))] for _ in range(n)]
            return [[_inner(cj, ck) for ck in C] for cj in C]
        rows = [[GaussianRational(draw(_rational)) for _ in range(n)] for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                rows[j][k] = draw(mixed)
                rows[k][j] = rows[j][k].conjugate()
        if kind == "zero corner":
            rows[0][0] = GaussianRational(0)
        return rows

    return HermitianMatrix(herm()), HermitianMatrix(herm())


def _from_values(n, value) -> HermitianMatrix:
    return HermitianMatrix([[value(j, k) for k in range(n)] for j in range(n)])


class TestCanonicalForm:
    @settings(max_examples=40, deadline=None)
    @given(_line_cases(), _rational, _rational, _rational)
    def test_equal_values_equal_matrices(self, KL, x1, x2, s):
        # built from entries, by combine_exact or by translated, a matrix of
        # the same value is ==, hashes alike and gives the same exact answers
        P, n = HermitianPencil(*KL), KL[0].n
        K, L = P.K, P.L
        T = P.translated(x1, x2)
        pairs = [
            (
                P.combine_exact(x1, x2, s),
                lambda j, k: _real_combination(((x1, K[j, k]), (x2, L[j, k])), s * (j == k)),
            ),
            (HermitianPencil(K, K).combine_exact(x1, -x1, s), lambda j, k: s * (j == k)),
            (T.K, lambda j, k: _real_combination(((1, K[j, k]),), -x1 * (j == k))),
            (T.L, lambda j, k: _real_combination(((1, L[j, k]),), -x2 * (j == k))),
        ]
        for M, value in pairs:
            E = _from_values(n, value)
            assert M == E and hash(M) == hash(E)
            assert M.is_positive_definite() == E.is_positive_definite()
            assert det_along_line(M, L) == det_along_line(E, L)


class TestPencilFiles:
    def test_roundtrip(self):
        P = eq3_pencil()
        Q = parse_pencil_text(format_pencil_text(P))
        assert Q.K == P.K and Q.L == P.L

    def test_single_matrix_form(self):
        P = parse_pencil_text("n 2\nA\n1 2+i\n2-i -3\n")
        assert P.K[0, 1] == GaussianRational(2, 1)
        assert P.L[0, 0] == GaussianRational(0)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as ei:
            parse_pencil_text("n 2\nK\n0 1\n1 oops\nL\n0 0\n0 0\n")
        assert ei.value.line == 4 and ei.value.column == 2
        with pytest.raises(ParseError):
            parse_pencil_text("K\n0\n")
        with pytest.raises(ParseError):
            parse_pencil_text("n 2\nK\n0 1\n1 0\n")
        with pytest.raises(ParseError):
            parse_pencil_text("n 2\nA\n0 1\n1 0\nK\n0 0\n0 0\n")

    def test_exact_det_along_line(self):
        P = parabola_pencil()
        A = HermitianMatrix.identity(2)
        assert det_along_line(A, P.L) == (Fraction(1), Fraction(1))
        assert det_along_line(A, P.K) == (Fraction(1), Fraction(0), Fraction(-1))
        i = GaussianRational(0, 1)
        # (A, B, coefficients or, where they are long, the degree)
        cases = [
            # zero pivot at t = 0, which forces a row swap
            (HermitianMatrix([[0, 1], [1, 0]]), HermitianMatrix.identity(2), (-1, 0, 1)),
            # B = 0: a constant
            (eq3_pencil().combine_exact(1, 0, 2), _zeros(3), 0),
            # rank-1 B: the degree drops to 1
            (eq3_pencil().L, HermitianMatrix([[1, i, 0], [i.conjugate(), 1, 0], [0, 0, 0]]), 1),
            # singular A: zero constant term
            (HermitianMatrix([[1, 1], [1, 1]]), HermitianMatrix.identity(2), (0, 2, 1)),
            # det identically 0
            (HermitianMatrix([[1, 0], [0, 0]]), HermitianMatrix([[2, 0], [0, 0]]), (0,)),
            (HermitianMatrix([[3]]), HermitianMatrix([[-2]]), (3, -2)),
        ]
        t = sympy.Symbol("t")
        for A, B, expected in cases:
            ref = sympy.Poly(sympy.expand((sympy_matrix(A) + t * sympy_matrix(B)).det()), t)
            ref = tuple(Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs()))
            got = det_along_line(A, B)
            assert got == ref
            assert all(isinstance(c, Fraction) for c in got)
            assert got == (Fraction(0),) or got[-1] != 0
            if isinstance(expected, int):
                assert len(got) == expected + 1
            else:
                assert got == tuple(Fraction(c) for c in expected)

    @settings(max_examples=60, deadline=None)
    @given(_line_cases())
    def test_det_along_line_matches_sympy(self, AB):
        A, B = AB
        t = sympy.Symbol("t")
        M = sympy_matrix(A) + t * sympy_matrix(B)
        ref = sympy.Poly(sympy.expand(M.det(method="domain-ge")), t)
        ref = tuple(Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs()))
        assert det_along_line(A, B) == (ref if any(ref) else (Fraction(0),))
