import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kippenhahn.exactnum import GaussianRational, ParseError
from kippenhahn.matrixpencil import (
    EigenError,
    HermitianMatrix,
    HermitianPencil,
    det_along_line,
    dual_boundary_point,
    eigen_hermitian,
    format_pencil_text,
    parse_pencil_text,
    pencil_det,
    sample_numrange_boundary,
    spectrahedron_contains,
    support_function,
)
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


class TestHermitianMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            HermitianMatrix([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            HermitianMatrix([[GaussianRational(0, 1), 0], [0, 0]])

    def test_accepts_conjugate_pairs(self):
        z = GaussianRational(1, 2)
        HermitianMatrix([[0, z], [z.conjugate(), 3]])

    def test_positive_definite_exact(self):
        assert HermitianMatrix.identity(3).is_positive_definite()
        assert not HermitianMatrix([[0, 1], [1, 0]]).is_positive_definite()
        z = GaussianRational(0, Fraction(1, 2))
        M = HermitianMatrix([[2, z], [z.conjugate(), 2]])
        assert M.is_positive_definite()


class TestPencilDet:
    def test_appendix_golden(self):
        assert pencil_det(eq3_pencil()) == parse_poly(APPENDIX_P, V3)

    def test_parabola(self):
        assert pencil_det(parabola_pencil()) == parse_poly("x0^2 + x0*x2 - x1^2", V3)

    def test_identity_only(self):
        P = HermitianPencil(HermitianMatrix.zeros(4), HermitianMatrix.zeros(4))
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
        i = GaussianRational(0, 1)
        for j in range(n):
            for k in range(n):
                assert P.K[j, k] + i * P.L[j, k] == A[j][k]


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
    def test_origin_always_strictly_inside(self):
        rng = random.Random(60)
        for n in (1, 2, 3):
            P = random_pencil(rng, n)
            assert spectrahedron_contains(P, (0, 0), strict=True)

    def test_parabola_boundary(self):
        P = parabola_pencil()
        assert spectrahedron_contains(P, (0, -1))
        assert not spectrahedron_contains(P, (0, -1), strict=True)

    def test_outside_points(self):
        P = eq3_pencil()
        for theta in (0.3, 1.8, 4.0):
            x = (math.cos(theta), math.sin(theta))
            s = dual_boundary_point(P, x)
            outside = (1.05 * s[0], 1.05 * s[1])
            assert not spectrahedron_contains(P, outside, strict=True)


class TestDualBoundary:
    def test_parabola(self):
        P = parabola_pencil()
        assert np.allclose(dual_boundary_point(P, (1, 0)), (1.0, 0.0), atol=1e-10)
        assert np.allclose(dual_boundary_point(P, (-1, 0)), (-1.0, 0.0), atol=1e-10)

    def test_eq3(self):
        s = dual_boundary_point(eq3_pencil(), (1, 0))
        assert np.allclose(s, (1 / math.sqrt(2), 0.0), atol=1e-10)

    def test_boundary_has_zero_min_eigenvalue(self):
        rng = random.Random(61)
        P = eq3_pencil()
        for _ in range(25):
            theta = rng.uniform(0, 2 * math.pi)
            s = dual_boundary_point(P, (math.cos(theta), math.sin(theta)))
            lam = 1.0 + support_function(P, s)
            assert abs(lam) <= 1e-9

    def test_origin_not_interior_reported(self):
        with pytest.raises(ValueError, match="origin not interior"):
            dual_boundary_point(parabola_pencil(), (0, 1))


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
