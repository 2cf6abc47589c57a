import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kippenhahn.convexgeom import (
    OracleBody,
    PencilBody,
    PointCloud,
    ProjLine,
    ProjPoint,
    check_lemma_ws,
    convex_hull,
    fermat6_body,
    hausdorff,
    line_curve_real_check,
    line_meets_interior_dual,
    point_outside_W,
    sample_kippenhahn_curve,
    tangency_check,
)
from kippenhahn.exactnum import AlgebraicReal, RationalInterval
from kippenhahn.groebner import dual_curve
from kippenhahn.matrixpencil import HermitianMatrix, HermitianPencil
from kippenhahn.mpoly import parse_poly

V3 = ("x0", "x1", "x2")


def eq3_body() -> PencilBody:
    K = HermitianMatrix([[0, -1, 0], [-1, 0, 1], [0, 1, 0]])
    L = HermitianMatrix(
        [
            [Fraction(-1, 4), Fraction(-1, 2), 1],
            [Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 2)],
            [1, Fraction(-1, 2), Fraction(-1, 4)],
        ]
    )
    return PencilBody(HermitianPencil(K, L), name="eq3")


def parabola_body() -> PencilBody:
    return PencilBody(
        HermitianPencil(
            HermitianMatrix([[0, 1], [1, 0]]), HermitianMatrix([[1, 0], [0, 0]])
        ),
        name="parabola",
    )


def omega() -> AlgebraicReal:
    return AlgebraicReal(
        (-1, 0, 0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 1), RationalInterval(1, 2)
    )


class TestPolarity:
    def test_involution(self):
        rng = random.Random(42)
        for _ in range(50):
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
            if not any(coords):
                continue
            pt = ProjPoint(*coords)
            assert pt.polar().polar() == pt

    def test_supporting_line_pole(self):
        # pole of a supporting line with normal x is (-h(x) : x1 : x2)
        body = eq3_body()
        x = (0.6, -0.8)
        h = body.support(*x)
        pole = ProjPoint(-h, x[0], x[1])
        # the contact point y satisfies <x, y> = h, i.e. lies on the polar
        from kippenhahn.matrixpencil import sample_numrange_boundary

        theta = math.atan2(x[1], x[0]) % (2 * math.pi)
        m = 4096
        j = round(theta / (2 * math.pi) * m) % m
        rec = sample_numrange_boundary(body.pencil, m)[j]
        y = ProjPoint(1.0, rec[1][0], rec[1][1])
        assert y.incident(pole.polar(), tol=1e-3)

    def test_affine_origin_and_line_at_infinity(self):
        origin_dual_chart = ProjPoint(1, 0, 0)
        line = origin_dual_chart.polar()
        # incidence y0 = 0 defines the line at infinity
        assert ProjPoint(0, 3, -2).incident(line)
        assert not ProjPoint(1, 3, -2).incident(line)

    def test_incidence_exact_for_rationals(self):
        pt = ProjPoint(Fraction(2), Fraction(-1), Fraction(1))
        line = ProjPoint(Fraction(1), Fraction(1), Fraction(-1)).polar()
        assert pt.incident(line)


class TestPointOutside:
    def test_isolated_singular_point_outside(self):
        w = omega().to_float()
        res = point_outside_W(fermat6_body(), (w, w))
        assert res.outside is True
        assert res.direction is not None
        # the separating direction for the symmetric point is near -(1,1)/sqrt2
        d = res.direction
        assert abs(d[0] - d[1]) < 1e-3 and d[0] < 0

    def test_centroid_inside(self):
        body = eq3_body()
        c = body.centroid()
        res = point_outside_W(body, (float(c[0]), float(c[1])))
        assert res.outside is False

    def test_far_point_outside(self):
        res = point_outside_W(parabola_body(), (0.0, 10.0))
        assert res.outside is True
        x = res.direction
        y = (0.0, 10.0)
        body = parabola_body()
        assert x[0] * y[0] + x[1] * y[1] < body.support(*x)


class TestLineMeetsInterior:
    def test_polar_of_interior_point_misses(self):
        body = eq3_body()
        line = ProjPoint.from_affine(0.05, -0.05).polar()
        assert line_meets_interior_dual(body, line).meets is False

    def test_fermat_double_tangent_crosses(self):
        w = omega()
        line = ProjPoint(1, w, w).polar()
        res = line_meets_interior_dual(fermat6_body(), line)
        assert res.meets is True
        s = res.point
        assert s[0] ** 6 + s[1] ** 6 < 1.0

    def test_line_at_infinity(self):
        assert (
            line_meets_interior_dual(fermat6_body(), ProjPoint(1, 0, 0).polar()).meets
            is False
        )


class TestLemmaWS:
    def test_eq3_agreement(self):
        body = eq3_body().translated_to_centroid()
        rng = random.Random(45)
        samples = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(60)]
        _, mismatches, degen = check_lemma_ws(body, samples)
        assert mismatches == []
        assert degen <= 3


class TestLineCurveRealCheck:
    def test_parabola_axis(self):
        res = line_curve_real_check(parabola_body(), (0, 0), (0, 1))
        assert res.all_real
        assert res.meets_at_infinity  # the (0:0:1) intersection
        # finite intersection at the vertex (1:0:-1): restriction root -1
        assert res.restriction.coeffs == (Fraction(1), Fraction(1))

    def test_eq3_k_direction(self):
        res = line_curve_real_check(eq3_body(), (0, 0), (1, 0))
        assert res.all_real and res.meets_at_infinity
        assert res.finite_roots == 2

    def test_random_interior_lines_all_real(self):
        body = eq3_body()
        rng = random.Random(46)
        done = 0
        while done < 25:
            e = (
                Fraction(rng.randint(-40, 40), 64),
                Fraction(rng.randint(-40, 40), 64),
            )
            if not body.interior_exact(*e):
                continue
            d = (Fraction(rng.randint(-8, 8)), Fraction(rng.randint(-8, 8)))
            if not any(d):
                continue
            done += 1
            assert line_curve_real_check(body, e, d).all_real

    def test_fermat_far_line_misses_real(self):
        # a line missing S meets the sextic curve only at complex points
        body = fermat6_body()
        f, _ = body.restriction_poly((2, 0), (0, 1))
        from kippenhahn.realroots import roots_all_real

        assert not roots_all_real(f)

    def test_fermat_interior_line_fails_realness(self):
        # the failure mode of the counterexample: an interior line with
        # non-real intersections
        res = line_curve_real_check(fermat6_body(), (0, 0), (1, 0))
        assert not res.all_real

    def test_rejects_noninterior_base(self):
        with pytest.raises(ValueError):
            line_curve_real_check(parabola_body(), (0, -2), (1, 0))


class TestKippenhahnCloud:
    def test_two_by_two_is_ellipse(self):
        rng = random.Random(47)
        K = HermitianMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), -1]])
        L = HermitianMatrix([[0, 1], [1, 1]])
        cloud = sample_kippenhahn_curve(HermitianPencil(K, L), 120)
        pts = np.array(cloud.points)
        # fit a conic through the samples; residual certifies ellipse shape
        A = np.column_stack(
            [
                pts[:, 0] ** 2,
                pts[:, 0] * pts[:, 1],
                pts[:, 1] ** 2,
                pts[:, 0],
                pts[:, 1],
                np.ones(len(pts)),
            ]
        )
        _, sv, _ = np.linalg.svd(A, full_matrices=False)
        assert sv[-1] < 1e-9 * sv[0]

    def test_commuting_pencil_collapses(self):
        K = HermitianMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        L = HermitianMatrix([[5, 0, 0], [0, -1, 0], [0, 0, 0]])
        cloud = sample_kippenhahn_curve(HermitianPencil(K, L), 36)
        uniq = {(round(a, 9), round(b, 9)) for a, b in cloud.points}
        assert len(uniq) <= 3

    def test_cloud_on_dual_curve(self):
        body = eq3_body()
        q = dual_curve(body.curve_poly).normalized()
        norm1 = float(sum(abs(c) for c in q.terms.values()))
        cloud = sample_kippenhahn_curve(body.pencil, 90)
        worst = max(abs(q.evaluate((1.0, a, b))) for a, b in cloud.points)
        assert worst <= 1e-6 * norm1

    def test_matches_per_direction_solves(self):
        # the stacked sweep against one eigen_hermitian call per direction
        from kippenhahn.matrixpencil import eigen_hermitian, sample_numrange_boundary

        P = eq3_body().pencil
        Kf, Lf = P._floats()
        m = 48
        cloud = sample_kippenhahn_curve(P, m)
        boundary = sample_numrange_boundary(P, m)
        for j in range(m):
            theta = 2.0 * math.pi * j / m
            r = eigen_hermitian(math.cos(theta) * Kf + math.sin(theta) * Lf)
            ys = [
                (np.vdot(v, Kf @ v).real, np.vdot(v, Lf @ v).real)
                for v in map(np.array, r.eigenvectors)
            ]
            t, y, h = boundary[j]
            assert t == theta and abs(h - r.eigenvalues[0]) <= 1e-12
            assert math.dist(y, ys[0]) <= 1e-10
            for k in range(P.n):
                i = P.n * j + k
                assert cloud.thetas[i] == theta and cloud.branches[i] == k
                assert math.dist(cloud.points[i], ys[k]) <= 1e-10

    def test_csv_export(self):
        cloud = sample_kippenhahn_curve(parabola_body().pencil, 8)
        csv = cloud.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "theta,y1,y2,branch"
        assert len(lines) == 1 + len(cloud)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointCloud([(0.0, math.inf)])


class TestHullAndHausdorff:
    def test_square_with_center(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert hull == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    def test_single_point(self):
        assert convex_hull([(2, 3)]) == [(2.0, 3.0)]

    def test_collinear_dropped(self):
        hull = convex_hull([(0, 0), (1, 0), (2, 0), (2, 1)])
        assert (1.0, 0.0) not in hull

    def test_hausdorff_identical(self):
        pts = [(0, 0), (1, 2), (3, -1)]
        assert hausdorff(pts, pts) == 0.0

    def test_hausdorff_shift(self):
        a = [(0, 0), (1, 0), (1, 1), (0, 1)]
        b = [(x + 0.1, y) for x, y in a]
        assert abs(hausdorff(a, b) - 0.1) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hausdorff([], [(0, 0)])

    def test_hull_matches_boundary_two_sided(self):
        # desk-scale version of the convex hull statement
        from kippenhahn.matrixpencil import sample_numrange_boundary

        body = eq3_body()
        m = 240
        cloud = sample_kippenhahn_curve(body.pencil, m)
        boundary = [y for _, y, _ in sample_numrange_boundary(body.pencil, m)]
        hull = convex_hull(cloud.points)
        assert hausdorff(hull, boundary) <= 24.0 / m**2 + 1e-12


class TestTangency:
    def test_conic_contact(self):
        conic = parse_poly("x0^2 - x1^2 - x2^2", V3)
        wits = tangency_check(conic, ProjPoint(1, 1, 0))
        assert len(wits) == 1
        w = wits[0]
        assert w.x1.re.contains(-1) and w.x1.im.contains(0)
        assert w.x2.re.contains(0) and w.x2.im.contains(0)
        # gradient at the contact point is parallel to (1 : 1 : 0)
        grad = [conic.diff(i).evaluate((Fraction(1), Fraction(-1), Fraction(0))) for i in range(3)]
        assert grad[0] * 1 - grad[1] * 1 == 0 and grad[2] == 0

    def test_generic_point_no_tangency(self):
        conic = parse_poly("x0^2 - x1^2 - x2^2", V3)
        assert tangency_check(conic, ProjPoint(1, 2, 0)) == []
        assert tangency_check(conic, ProjPoint(1, Fraction(1, 3), Fraction(1, 7))) == []

    def test_fermat_conjugate_pair(self):
        p = parse_poly("x0^6 - x1^6 - x2^6", V3)
        w = omega()
        wits = tangency_check(p, ProjPoint(1, w, w))
        assert len(wits) == 2
        a, b = wits
        # complex conjugates of one another
        assert a.x1.re.intersect(b.x1.re) is not None
        assert a.x1.im.intersect(RationalInterval(-b.x1.im.hi, -b.x1.im.lo)) is not None


class TestOracleBody:
    def test_membership_polynomial(self):
        body = fermat6_body()
        assert body.interior_exact(Fraction(1, 2), Fraction(1, 2))
        assert not body.interior_exact(Fraction(2), Fraction(0))

    def test_support_matches_dual_norm(self):
        body = fermat6_body()
        # h(1, 0) = -1 and h(1, 1) = -2^(1/6)
        assert abs(body.support(1.0, 0.0) + 1.0) < 1e-12
        assert abs(body.support(1.0, 1.0) + 2 ** (1 / 6)) < 1e-12
