import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_random_pencil
from kippenhahn.convexgeom import (
    OracleBody,
    PencilBody,
    PointCloud,
    ProjPoint,
    TANGENCY_EPS,
    _GRID,
    _generator_sign,
    _horner,
    _polar_line_param,
    _round_out,
    _support_sweep,
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
from kippenhahn.exactnum import AlgebraicReal, ComplexInterval, RationalInterval, UniPoly
from kippenhahn.groebner import dual_curve
from kippenhahn.matrixpencil import HermitianMatrix, HermitianPencil, support_function
from kippenhahn.mpoly import MultiPoly, parse_poly
from kippenhahn.realroots import PrecisionError, resultant, sturm_isolate

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


def _power(z, n):
    """The box z**n as n - 1 interval products."""
    out = z
    for _ in range(n - 1):
        out = out * z
    return out


def _pairing(point, line):
    """x0 y0 + x1 y1 + x2 y2 of a point x and the pole y of a line: zero
    exactly when the point lies on the line."""
    return sum(a * b for a, b in zip(point.coords, line.pole.coords))


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
        scale = max(map(abs, y.coords)) * max(map(abs, pole.coords))
        assert abs(_pairing(y, pole.polar())) <= 1e-3 * scale

    def test_affine_origin_and_line_at_infinity(self):
        origin_dual_chart = ProjPoint(1, 0, 0)
        line = origin_dual_chart.polar()
        # incidence y0 = 0 defines the line at infinity
        assert _pairing(ProjPoint(0, 3, -2), line) == 0
        assert _pairing(ProjPoint(1, 3, -2), line) != 0

    def test_algebraic_zero_is_zero(self):
        zero = AlgebraicReal((0, 1), RationalInterval(-1, 1))
        with pytest.raises(ValueError, match="nonzero coordinate"):
            ProjPoint(zero, zero, zero)
        # t^3 - 2t has the root 0 too, but the interval holds sqrt(2)
        sqrt2 = AlgebraicReal((0, -2, 0, 1), RationalInterval(1, 2))
        assert ProjPoint(zero, zero, sqrt2).coords == (zero, zero, sqrt2)

    def test_incidence_exact_for_rationals(self):
        pt = ProjPoint(Fraction(2), Fraction(-1), Fraction(1))
        line = ProjPoint(Fraction(1), Fraction(1), Fraction(-1)).polar()
        assert _pairing(pt, line) == 0


class TestPointOutside:
    def test_isolated_singular_point_outside(self):
        w = float(omega())
        res = point_outside_W(fermat6_body(), (w, w))
        assert res.outside is True
        assert res.direction is not None
        # the separating direction for the symmetric point is near -(1,1)/sqrt2
        d = res.direction
        assert abs(d[0] - d[1]) < 1e-3 and d[0] < 0

    def test_centroid_inside(self):
        body = eq3_body()
        c = body.pencil.centroid()
        res = point_outside_W(body, (float(c[0]), float(c[1])))
        assert res.outside is False

    def test_support_sweep_matches_support_function(self):
        # the stacked eigvalsh sweep is the per-direction support_function,
        # bit for bit
        rng = random.Random(5)
        pencils = [eq3_body().pencil] + [make_random_pencil(rng, n) for n in (2, 3, 5, 7)]
        for P in pencils:
            thetas, hs = _support_sweep(PencilBody(P), 96)
            assert hs == [support_function(P, (math.cos(t), math.sin(t))) for t in thetas]

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
        f = body.restriction_poly((2, 0), (0, 1))
        from kippenhahn.realroots import count_real_roots

        fs = f.squarefree_part()
        assert count_real_roots(fs) < fs.degree

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
        with pytest.raises(ValueError):
            PointCloud(np.array([[1.0, 2.0], [math.nan, 0.0]]))

    def test_points_are_one_array(self):
        n, m = 3, 40
        cloud = sample_kippenhahn_curve(eq3_body().pencil, m)
        assert cloud.points.shape == (n * m, 2) and cloud.points.dtype == np.float64
        assert len(cloud) == n * m

    def test_list_and_array_give_the_same_csv(self):
        pts = [(0.5, -1.25), (1e-7, 3.0), (-2.0, 0.0)]
        thetas, branches = [0.0, 0.0, math.pi / 3], [0, 1, 0]
        from_list = PointCloud(pts, thetas, branches)
        from_array = PointCloud(np.array(pts), np.array(thetas), np.array(branches))
        assert from_list.to_csv() == from_array.to_csv()
        assert PointCloud(pts).to_csv() == PointCloud(np.array(pts)).to_csv()
        row = PointCloud(pts).to_csv().splitlines()[1]
        assert row == "nan,5.000000000000e-01,-1.250000000000e+00,0"


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
        # run_verification reads the boundary samples off the cloud: the first
        # point of each direction is its smallest eigenvector's image
        assert cloud.points[:: body.pencil.n].tolist() == [list(y) for y in boundary]
        for seed, n in ((13, 3), (5, 5)):
            P = make_random_pencil(random.Random(seed), n)
            for m in (48, 120):
                boundary = [y for _, y, _ in sample_numrange_boundary(P, m)]
                points = sample_kippenhahn_curve(P, m).points
                assert points[::n].tolist() == [list(y) for y in boundary]


class TestTangency:
    def test_conic_contact(self):
        conic = parse_poly("x0^2 - x1^2 - x2^2", V3)
        wits = tangency_check(conic, ProjPoint(1, 1, 0))
        assert len(wits) == 1
        w = wits[0]
        assert w.x1.re.lo <= -1 <= w.x1.re.hi and w.x1.im.lo <= 0 <= w.x1.im.hi
        assert w.x2.re.lo <= 0 <= w.x2.re.hi and w.x2.im.lo <= 0 <= w.x2.im.hi
        # gradient at the contact point is parallel to (1 : 1 : 0)
        grad = [conic.diff(i).evaluate((Fraction(1), Fraction(-1), Fraction(0))) for i in range(3)]
        assert grad[0] * 1 - grad[1] * 1 == 0 and grad[2] == 0

    def test_generic_point_no_tangency(self):
        conic = parse_poly("x0^2 - x1^2 - x2^2", V3)
        assert tangency_check(conic, ProjPoint(1, 2, 0)) == []
        assert tangency_check(conic, ProjPoint(1, Fraction(1, 3), Fraction(1, 7))) == []

    def test_rejects_an_inhomogeneous_polynomial(self):
        # the parabola x2 = x0^2 - x1^2 is no projective curve
        p = parse_poly("x0^2 - x1^2 - x2", V3)
        with pytest.raises(ValueError, match="^polynomial must be homogeneous$"):
            tangency_check(p, ProjPoint(1, 1, 0))

    def test_fermat_conjugate_pair(self):
        p = parse_poly("x0^6 - x1^6 - x2^6", V3)
        w = omega()
        wits = tangency_check(p, ProjPoint(1, w, w))
        assert len(wits) == 2
        a, b = wits
        # complex conjugates of one another
        assert a.x1.re.intersect(b.x1.re) is not None
        assert a.x1.im.intersect(RationalInterval(-b.x1.im.hi, -b.x1.im.lo)) is not None

    @pytest.mark.parametrize("s1, s2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_fermat_negated_generator(self, s1, s2):
        # one coordinate is the other's generator negated.  The polar of
        # y = (1 : y1 : y2) touches x0^6 = x1^6 + x2^6 where the gradient
        # (6, -6 x1^5, -6 x2^5) is parallel to y: x_k^5 = -y_k
        p = parse_poly("x0^6 - x1^6 - x2^6", V3)
        plus = omega()
        minus = AlgebraicReal(plus.poly, RationalInterval(-2, -1))
        y = [plus if s > 0 else minus for s in (s1, s2)]
        wits = tangency_check(p, ProjPoint(1, *y))
        assert len(wits) == 2
        eps = Fraction(1, 10**25)
        for w in wits:
            for x, yk in zip((w.x1, w.x2), y):
                yk = ComplexInterval(yk.refine(eps))
                assert (_power(x, 5) + yk).contains_zero()
                assert not (_power(x, 5) - yk).contains_zero()
            assert (ComplexInterval(1) - _power(w.x1, 6) - _power(w.x2, 6)).contains_zero()
            # outward rounding keeps every endpoint short (exact Newton
            # boxes reached about 2,300 bits)
            for z in (w.x1, w.x2, w.parameter):
                for end in (z.re.lo, z.re.hi, z.im.lo, z.im.hi):
                    assert end.numerator.bit_length() <= 512
                    assert end.denominator.bit_length() <= 512
        a, b = wits
        assert a.x1.re.intersect(b.x1.re) is not None
        assert a.x1.im.intersect(RationalInterval(-b.x1.im.hi, -b.x1.im.lo)) is not None


def _restriction(p, y):
    """g(w, t), p on the polar line of y as ``tangency_check`` forms it, with
    the leading t-coefficients that vanish at the generator dropped, and
    that generator."""
    Pp, Qq, gen, _ = _polar_line_param(y.coords, TANGENCY_EPS)
    wt = ("w", "t")
    t = MultiPoly.variable(wt, 1)

    def lift(f):
        return MultiPoly(wt, {(i, 0): c for i, c in enumerate(f.coeffs)})

    g = p.normalized().evaluate([lift(Pp[i]) + t * lift(Qq[i]) for i in range(3)])
    while g.degree_in(1) > 0 and gen.is_root_of(g.coefficients(1)[-1]):
        g = MultiPoly(wt, {e: c for e, c in g.terms.items() if e[1] < g.degree_in(1)})
    return g, gen


def _contact_gcd(p, y):
    g, gen = _restriction(p, y)
    return gen.gcd(g.coefficients(1), g.diff(1).coefficients(1))


def _random_form(rng, d):
    """A random ternary form of degree d with small integer coefficients."""
    return MultiPoly(V3, {(i, j, d - i - j): rng.randint(-3, 3)
                          for i in range(d + 1) for j in range(d + 1 - i)})


class TestContactDegree:
    """The degree of ``AlgebraicReal.gcd`` on the restriction g of a curve
    to a polar line, the double-root test of ``tangency_check``."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3, 6]),
        st.sampled_from([(2, 1), (3, 1), (5, 1), (3, 2), (5, 3), (7, 2)]),
        st.lists(st.sampled_from([1, -1, 0, Fraction(1, 2), -2]), min_size=3, max_size=3),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_matches_resultant_and_sympy(self, d, kj, kinds, planted, rng):
        # the point has coordinates +-a = +-sqrt(k/j) (1 and -1 in ``kinds``)
        # and rationals; a planted curve N h + s^2 r, N the norm of the
        # polar's linear form, restricts to the line as s^2 r, so it is
        # tangent wherever s vanishes there
        k, j = kj
        if all(c not in (1, -1) for c in kinds):
            kinds[rng.randrange(3)] = 1
        plus = AlgebraicReal((-k, 0, j), RationalInterval(0, k))
        minus = AlgebraicReal((-k, 0, j), RationalInterval(-k, 0))
        coords = [plus if c == 1 else minus if c == -1 else Fraction(c) for c in kinds]
        x = [MultiPoly.variable(V3, i) for i in range(3)]
        if planted:
            A = sum((c * xi for c, xi in zip(coords, x) if isinstance(c, Fraction)), x[0] * 0)
            B = sum((kinds[i] * x[i] for i in range(3) if isinstance(coords[i], AlgebraicReal)), x[0] * 0)
            e = rng.randint(1, d // 2)
            s = _random_form(rng, e)
            p = (A * A * j - B * B * k) * _random_form(rng, d - 2) + s * s * _random_form(rng, d - 2 * e)
        else:
            p = _random_form(rng, d)
        if p.is_zero:
            return
        g, gen = _restriction(p, ProjPoint(*coords))
        if g.degree_in(1) <= 0:
            return
        gp = g.diff(1)
        degree = len(gen.gcd(g.coefficients(1), gp.coefficients(1))) - 1
        assert (degree > 0) == gen.is_root_of(resultant(g, gp, eliminate=1))
        a, t = sympy.sqrt(sympy.Rational(k, j)), sympy.symbols("t")
        field = sympy.QQ.algebraic_field(a)
        f = sympy.Poly(sum(int(c) * a**i * t**n for (i, n), c in g.terms.items()), t, domain=field)
        assert degree == sympy.gcd(f, f.diff(t)).degree()

    def test_reducible_generator_polynomial(self):
        # a = sqrt 2 given by m = (w^2 - 2)(w^2 - 3): w^2 - 2 is a nonzero
        # residue mod m that vanishes at a, so the leading coefficient of
        # f = (w^2 - 2) t^3 + (t - w)^2 must be dropped: gcd(f, f') = t - a
        gen = AlgebraicReal((6, 0, -5, 0, 1), RationalInterval(1, Fraction(3, 2)))
        f = [UniPoly([0, 0, 1]), UniPoly([0, -2]), UniPoly([1]), UniPoly([-2, 0, 1])]
        fp = [UniPoly([0, -2]), UniPoly([2]), UniPoly([-6, 0, 3])]
        assert len(gen.gcd(f, fp)) - 1 == 1
        assert len(gen.gcd(f[:-1], [UniPoly([1])])) - 1 == 0
        # q w - p, p/q a convergent of sqrt 2, is -1.9e-11 at a, not zero:
        # the cubic keeps its lead and has no double root
        p, q = 26102926097, 18457556052
        g = f[:-1] + [UniPoly([-p, q])]
        gp = fp[:-1] + [UniPoly([-3 * p, 3 * q])]
        assert len(gen.gcd(g, gp)) - 1 == 0
        assert gen.gcd([UniPoly([-2, 0, 1])], [UniPoly([])]) == []
        # the polar of (a : 1 : 1) touches x0^2 = x1^2 + x2^2 at (a : -1 : -1)
        conic = parse_poly("x0^2 - x1^2 - x2^2", V3)
        y = ProjPoint(gen, 1, 1)
        assert len(_contact_gcd(conic, y)) - 1 == 1
        (w,) = tangency_check(conic, y)
        for z in (w.x1, w.x2):
            assert abs(z.to_complex() + 2**-0.5) < 1e-12

    def test_non_monic_generator_polynomial(self):
        # a = sqrt(3/2) given by 2 w^2 - 3: reducing w^2 in the constant
        # coefficient of (t - w)^2 scales it by lc(m) = 2, and the other
        # coefficients must be scaled with it
        gen = AlgebraicReal((-3, 0, 2), RationalInterval(0, 2))
        f = [UniPoly([0, 0, 1]), UniPoly([0, -2]), UniPoly([1])]
        assert len(gen.gcd(f, [UniPoly([0, -2]), UniPoly([2])])) - 1 == 1
        assert len(gen.gcd(f, [UniPoly([0, -1]), UniPoly([2])])) - 1 == 0
        # the coefficients of (t - w)^3 need 2, 1, 0 and 0 reduction steps;
        # all four must scale by lc(m)^2
        cube = [UniPoly([0, 0, 0, -1]), UniPoly([0, 0, 3]), UniPoly([0, -3]), UniPoly([1])]
        assert len(gen.gcd(cube, [UniPoly([0, 0, 3]), UniPoly([0, -6]), UniPoly([3])])) - 1 == 2
        assert len(gen.gcd(cube, f)) - 1 == 2

    @pytest.mark.parametrize("s1, s2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_fermat_points(self, s1, s2):
        # one witness per root of the contact gcd G, in disjoint boxes, each
        # holding a common root of g and g'
        p = parse_poly("x0^6 - x1^6 - x2^6", V3)
        plus = omega()
        minus = AlgebraicReal(plus.poly, RationalInterval(-2, -1))
        y = ProjPoint(1, *(plus if s > 0 else minus for s in (s1, s2)))
        wits = tangency_check(p, y)
        assert len(wits) == len(_contact_gcd(p, y)) - 1 == 2
        a, b = (w.parameter for w in wits)
        assert a.re.intersect(b.re) is None or a.im.intersect(b.im) is None
        g, gen = _restriction(p, y)
        w_iv = gen.refine(TANGENCY_EPS)
        for h in (g, g.diff(1)):
            coeffs = [ComplexInterval(c(w_iv)) for c in h.coefficients(1)]
            for T in (a, b):
                assert _horner(coeffs, T).contains_zero()

    def test_control_point(self):
        p = parse_poly("x0^6 - x1^6 - x2^6", V3)
        y = ProjPoint(1, Fraction(1, 3), omega())
        assert len(_contact_gcd(p, y)) - 1 == 0
        assert tangency_check(p, y) == []

    def test_flex_raises(self):
        # the polar of (0 : 0 : 1) is {x2 = 0}, the inflectional tangent at
        # (1 : 0 : 0): G = t^2 has a double root, which Newton cannot
        # isolate, so the check raises instead of reading "not tangent"
        p = parse_poly("x2*x0^2 - x1^3", V3)
        assert len(_contact_gcd(p, ProjPoint(0, 0, 1))) - 1 == 2
        with pytest.raises(PrecisionError, match="certified 0 of the 2 contact roots"):
            tangency_check(p, ProjPoint(0, 0, 1))

    def test_polar_line_inside_the_curve(self):
        # the polar of (0 : 1 : 0) is {x1 = 0}, a component of the cubic
        p = parse_poly("x0^2*x1 - x1^3 - x1*x2^2", V3)
        with pytest.raises(ValueError, match="inside the curve"):
            tangency_check(p, ProjPoint(0, 1, 0))


class TestGeneratorSign:
    """``_generator_sign`` decides exactly whether two roots of one
    polynomial are equal or opposite."""

    # (x^2 - 2)(N x^2 - 2N - 1), N = 10^31: roots +-sqrt 2 and
    # +-sqrt(2 + 1/N), closer than TANGENCY_EPS
    N = 10**31
    ROOTS = sturm_isolate(UniPoly([4 * N + 2, 0, -(4 * N + 1), 0, N]))

    def test_close_roots_are_distinct(self):
        _, _, a, b = self.ROOTS
        assert _generator_sign(a, b) == _generator_sign(b, a) == 0
        assert _generator_sign(a, a) == 1
        with pytest.raises(ValueError, match="at most one algebraic generator"):
            tangency_check(parse_poly("x0^2 - x1^2 - x2^2", V3), ProjPoint(1, a, b))

    def test_negation(self):
        c, d, a, b = self.ROOTS
        assert _generator_sign(d, a) == _generator_sign(c, b) == -1
        assert _generator_sign(c, a) == _generator_sign(d, b) == 0


_long = st.builds(
    Fraction, st.integers(-(2**300), 2**300), st.integers(1, 2**260)
) | st.fractions(min_value=-5, max_value=5, max_denominator=10**6)
_long_iv = st.lists(_long, min_size=1, max_size=2).map(sorted).map(
    lambda e: RationalInterval(e[0], e[-1])
)


class TestOutwardRounding:
    """``_round_out`` widens a box to the dyadic grid 1/_GRID; a short
    endpoint stays exact."""

    @settings(max_examples=300, deadline=None)
    @given(st.builds(ComplexInterval, _long_iv, _long_iv))
    @example(ComplexInterval(RationalInterval.point(Fraction(1, 3)), RationalInterval(-7, 2)))
    @example(ComplexInterval(RationalInterval.point(Fraction(2**301 + 1, 3 * 2**250))))
    def test_contains_the_box_and_ends_on_the_grid(self, z):
        grid = _GRID
        got = _round_out(z)
        for g, e in ((got.re, z.re), (got.im, z.im)):
            assert g.lo <= e.lo and e.hi <= g.hi
        exact = (z.re.lo, z.re.hi, z.im.lo, z.im.hi)
        for end, q in zip((got.re.lo, got.re.hi, got.im.lo, got.im.hi), exact):
            assert type(end) is Fraction
            if q.denominator <= grid:
                assert end == q
            else:
                assert grid % end.denominator == 0 and abs(end - q) < Fraction(1, grid)


_end = st.fractions(min_value=-5, max_value=5, max_denominator=24)
_iv = st.lists(_end, min_size=2, max_size=2).map(sorted).map(lambda e: RationalInterval(*e))
_box = st.builds(ComplexInterval, _iv, _iv)


class TestIntegerHorner:
    """``_horner`` runs on integers over common denominators; it must give
    the very box the ComplexInterval Horner gives."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_box, min_size=1, max_size=7), _box)
    @example([ComplexInterval(RationalInterval(1, 2))], ComplexInterval(Fraction(1, 3)))
    @example(
        [ComplexInterval(RationalInterval(Fraction(-1, 2), 3)), ComplexInterval(-2)],
        ComplexInterval(RationalInterval(Fraction(1, 3), Fraction(1, 2)), Fraction(-1, 5)),
    )
    def test_matches_complex_interval_horner(self, coeffs, t):
        acc = ComplexInterval(RationalInterval.point(0))
        for c in reversed(coeffs):
            acc = acc * t + c
        got = _horner(coeffs, t)
        assert (got.re, got.im) == (acc.re, acc.im)
        for end in (got.re.lo, got.re.hi, got.im.lo, got.im.hi):
            assert type(end) is Fraction


class TestRestrictionPoly:
    def test_parabola_axis(self):
        body = OracleBody(None, parse_poly("x0^2 + x0*x2 - x1^2", V3))
        f = body.restriction_poly((0, 0), (0, 1))
        # restriction along the x2-axis: 1 + t, root at t = -1
        assert f.coeffs == (Fraction(1), Fraction(1))

    def test_fermat_x1_axis(self):
        f = fermat6_body().restriction_poly((0, 0), (1, 0))
        assert f.coeffs == (Fraction(1), 0, 0, 0, 0, 0, Fraction(-1))

    def test_constant_direction(self):
        body = OracleBody(None, parse_poly("x0^2 + x0*x2 - x1^2", V3))
        f = body.restriction_poly((2, 5), (0, 1))
        # f(1, 2, 5 + t) = 1 + 5 + t - 4 = 2 + t
        assert f.coeffs == (Fraction(2), Fraction(1))

    _q = st.fractions(-3, 3, max_denominator=64)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["fermat6", "parabola"]), _q, _q, _q, _q)
    def test_matches_substitution(self, name, e1, e2, d1, d2):
        # the interpolated restriction against substituting e + T d into the
        # curve polynomial with MultiPoly arithmetic in the one variable T
        if name == "fermat6":
            body = fermat6_body()
        else:
            body = OracleBody(None, parse_poly("x0^2 + x0*x2 - x1^2", V3))
        T = MultiPoly.variable(("T",), 0)
        sub = body.curve_poly.evaluate((T**0, e1 + d1 * T, e2 + d2 * T))
        substituted = UniPoly([sub.terms.get((k,), 0) for k in range(sub.degree_in(0) + 1)])
        assert body.restriction_poly((e1, e2), (d1, d2)) == substituted

    def test_zero_direction(self):
        with pytest.raises(ValueError, match="zero direction"):
            line_curve_real_check(fermat6_body(), (0, 0), (0, 0))


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
