import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from kippenhahn.exactnum import AlgebraicReal
from kippenhahn.groebner import dual_curve
from kippenhahn.mpoly import MultiPoly, parse_poly
from kippenhahn.realroots import (
    DegenerateSystemError,
    UniPoly,
    count_real_roots,
    real_singular_points,
    resultant,
    roots_all_real,
    sturm_isolate,
)

V2 = ("a", "b")
VY = ("y0", "y1", "y2")


def sqrt_bounds(n: int, scale: int = 10**12):
    """Rational lower/upper bounds for sqrt(n) via integer square roots."""
    s = isqrt(n * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


class TestSturmIsolate:
    def test_sqrt2(self):
        roots = sturm_isolate(UniPoly([-2, 0, 1]))
        assert len(roots) == 2
        lo, hi = sqrt_bounds(2)
        pos = roots[1].refine(Fraction(1, 10**6))
        assert pos.lo <= lo and hi <= hi or pos.contains(lo)

    def test_golden_quadratic(self):
        # positive root of u^2 - 11u - 1 is (11 + 5 sqrt 5)/2
        roots = sturm_isolate(UniPoly([-1, -11, 1]))
        assert len(roots) == 2
        lo5, hi5 = sqrt_bounds(5)
        target_lo = (11 + 5 * lo5) / 2
        target_hi = (11 + 5 * hi5) / 2
        iv = roots[1].refine(Fraction(1, 10**9))
        assert iv.lo <= target_hi and target_lo <= iv.hi

    def test_roots_are_algebraic_reals(self):
        f = UniPoly([1, 1]) * UniPoly([1, 1]) * UniPoly([-2, 0, 1])
        roots = sturm_isolate(f)
        assert [type(r) for r in roots] == [AlgebraicReal] * 3
        # split points are never roots, so no interval collapses to a point
        assert all(r.interval.width > 0 for r in roots)
        assert all(r.poly == f.squarefree_part().int_coeffs() for r in roots)

    def test_no_real_roots(self):
        assert sturm_isolate(UniPoly([1, 0, 1])) == []

    def test_multiple_roots_collapse(self):
        f = UniPoly([1, 1]) * UniPoly([1, 1]) * UniPoly([-3, 1])
        roots = sturm_isolate(f)
        assert len(roots) == 2

    def test_disjoint_and_complete_random(self):
        rng = random.Random(71)
        for _ in range(30):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
            if not any(coeffs[1:]):
                continue
            f = UniPoly(coeffs)
            if f.is_zero or f.degree < 1:
                continue
            roots = sturm_isolate(f)
            # compare against numpy root count (distinct real ones)
            arr = np.roots(list(reversed([float(c) for c in f.squarefree_part().coeffs])))
            nreal = sum(1 for z in arr if abs(z.imag) < 1e-9)
            assert len(roots) == nreal
            for r1, r2 in zip(roots, roots[1:]):
                assert r1.interval.hi <= r2.interval.lo


class TestCountRealRoots:
    def test_window(self):
        f = UniPoly([0, -2, 0, 1])  # t^3 - 2t: roots 0, +-sqrt2
        assert count_real_roots(f) == 3
        assert count_real_roots(f, 1, 2) == 1

    def test_vs_bisection_oracle(self):
        rng = random.Random(73)
        for _ in range(20):
            roots = sorted(set(rng.randint(-6, 6) for _ in range(rng.randint(1, 4))))
            f = UniPoly([1])
            for r in roots:
                f = f * UniPoly([-r, 1])
            assert count_real_roots(f) == len(roots)
            # half-open window (a, b]
            assert count_real_roots(f, roots[0], roots[-1]) == len(roots) - 1


class TestRootsAllReal:
    def test_spread_cubic(self):
        assert roots_all_real(UniPoly([0, -2, 0, 1]))  # 0, +-sqrt2

    def test_complex_pair(self):
        assert not roots_all_real(UniPoly([1, 0, 1]))

    def test_sixth_roots(self):
        assert not roots_all_real(UniPoly([1, 0, 0, 0, 0, 0, -1]))


class TestResultant:
    def test_circle_line(self):
        f = parse_poly("a^2 + b^2 - 1", V2)
        g = parse_poly("a - b", V2)
        r = resultant(f, g, eliminate=0)
        assert r.primitive().coeffs == UniPoly([-1, 0, 2]).coeffs

    def test_axes(self):
        r = resultant(parse_poly("a", V2), parse_poly("b", V2), eliminate=0)
        assert r.coeffs == UniPoly([0, 1]).coeffs

    def test_coprime_constants(self):
        r = resultant(
            MultiPoly.constant(V2, 3), MultiPoly.constant(V2, 5), eliminate=0
        )
        assert not r.is_zero and r.degree == 0

    def test_vanishes_over_common_roots(self):
        rng = random.Random(79)
        amin = MultiPoly(V2, {(1, 0): 1})
        bmin = MultiPoly(V2, {(0, 1): 1})
        for _ in range(10):
            a0 = rng.randint(-5, 5)
            b0 = rng.randint(-5, 5)
            da = amin - a0
            db = bmin - b0

            def noise():
                return MultiPoly(
                    V2,
                    {
                        (rng.randint(0, 2), rng.randint(0, 2)): Fraction(
                            rng.randint(-3, 3)
                        ),
                        (0, 0): Fraction(rng.randint(1, 3)),
                    },
                )

            f = da * noise() + db * noise()
            g = da * noise() - db * noise()
            if f.is_zero or g.is_zero or f.degree_in(1) + g.degree_in(1) == 0:
                continue
            r = resultant(f, g, eliminate=1)
            assert r.is_zero or r(Fraction(a0)) == 0

    def test_shared_factor_gives_zero(self):
        common = parse_poly("a - b", V2)
        f = common * parse_poly("a + 2", V2)
        g = common * parse_poly("b - 3", V2)
        assert resultant(f, g, eliminate=0).is_zero


class TestSingularPoints:
    def test_nodal_cubic(self):
        q = parse_poly("y0*y2^2 - y1^3 - y0*y1^2", VY)
        pts = real_singular_points(q)
        affine = [s for s in pts if s.chart == "affine"]
        assert len(affine) == 1
        assert affine[0].float_coords() == (0.0, 0.0)
        assert affine[0].isolated is False
        assert affine[0].multiplicity_hint == 2

    def test_smooth_conic_empty(self):
        assert real_singular_points(parse_poly("y0^2 - y1^2 - y2^2", VY)) == []

    def test_rejects_nonsquarefree(self):
        f = parse_poly("y0 + y1", VY)
        with pytest.raises(ValueError):
            real_singular_points(f * f)

    def test_three_cusps_of_sextic_dual(self):
        p = parse_poly(
            "x0^3 - 3/4*x2*x0^2 - 2*x1^2*x0 - 21/16*x2^2*x0 + 55/64*x2^3 - 3/2*x1^2*x2",
            ("x0", "x1", "x2"),
        )
        q = dual_curve(p)
        pts = [s for s in real_singular_points(q) if s.chart == "affine"]
        assert len(pts) == 3
        assert all(not s.isolated for s in pts)
        coords = sorted(s.float_coords() for s in pts)
        # the curve is symmetric in y1 -> -y1: one cusp on the axis, two mirrored
        on_axis = [c for c in coords if abs(c[0]) < 1e-9]
        off_axis = [c for c in coords if abs(c[0]) >= 1e-9]
        assert len(on_axis) == 1 and len(off_axis) == 2
        a, b = off_axis
        assert abs(a[0] + b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9

    def test_isolated_point_certified(self):
        # (y1^2 + y2^2) * ((y1-1)^2 + y2^2 - 1/4) has an isolated real point
        # at the origin next to a circle through (1/2..3/2, 0)
        f = parse_poly(
            "y1^4 + y1^2*y2^2 - 2*y1^3 + y2^4 - 2*y1*y2^2 + 3/4*y1^2 + 3/4*y2^2",
            ("z", "y1", "y2"),
        )
        # homogenize in degree 4 with z
        terms = {}
        for exp, c in f.terms.items():
            d = sum(exp)
            terms[(4 - d + exp[0], exp[1], exp[2])] = c
        q = MultiPoly(VY, terms)
        pts = [s for s in real_singular_points(q) if s.chart == "affine"]
        origin = [s for s in pts if s.float_coords() == (0.0, 0.0)]
        assert len(origin) == 1
        assert origin[0].isolated is True

    def test_enclosures_shrink_under_refinement(self):
        # the definition check: q and its partials straddle zero over the
        # isolating box, and refining the box keeps shrinking the enclosure
        q = dual_curve(parse_poly("x0^6 - x1^6 - x2^6", ("x0", "x1", "x2")))
        from kippenhahn.realroots import _chart_poly

        q_aff = _chart_poly(q, 0)
        system = [q_aff, q_aff.diff(0), q_aff.diff(1)]
        pts = [
            s
            for s in real_singular_points(q)
            if s.chart == "affine" and not s.is_rational()
        ]
        assert pts
        s = pts[0]
        # below the census's own working precision, so refinement really bisects
        eps = Fraction(1, 10**22)
        for f in system:
            w_prev = None
            e = eps
            for _ in range(3):
                box = s.coordinate_box(e)
                val = f.evaluate(box)
                assert val.contains_zero()
                if w_prev is not None and w_prev > 0:
                    assert val.width * 2 <= w_prev
                w_prev = val.width
                e = e / 8

    def test_infinity_points_reported_separately(self):
        # y0 * y1 * y2 = 0: three lines meeting pairwise at three points,
        # two of them on the line at infinity
        q = parse_poly("y0*y1*y2", VY)
        pts = real_singular_points(q)
        affine = [s for s in pts if s.chart == "affine"]
        inf = [s for s in pts if s.chart == "infinity"]
        assert len(affine) == 1 and affine[0].float_coords() == (0.0, 0.0)
        assert len(inf) == 2

    @pytest.mark.parametrize(
        "text, y1, y2",
        [
            ("y0^2*y1 - y1^3", 0, 1),
            ("y0^2*y2 - y2^3", 1, 0),
            ("y0^3*y1 - y0*y1^3", 0, 1),
            ("y0^2*y1 + y0*y1^2 - 2*y1^3", 0, 1),
            ("y0^4 - 5*y0^2*y1^2 + 4*y1^4", 0, 1),
        ],
    )
    def test_lines_through_a_coordinate_point_at_infinity(self, text, y1, y2):
        # real lines meeting only at (0 : y1 : y2): the affine equations leave
        # out a variable, and the affine chart has no singular point
        pts = real_singular_points(parse_poly(text, VY))
        assert [(s.chart, s.y1, s.y2) for s in pts] == [("infinity", y1, y2)]
