import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_random_pencil
from kippenhahn import realroots
from kippenhahn.exactnum import AlgebraicReal
from kippenhahn.groebner import dual_curve
from kippenhahn.matrixpencil import pencil_det
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
SYM2 = sympy.symbols("a b")


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


_small_poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3)


@st.composite
def _eliminable(draw, z, t):
    """An integer polynomial of degree 0..3 in z whose leading coefficient in
    z is a polynomial in t times a subset of t, t - 1, t - 2, so that the
    resultant's samples at those integers must be skipped."""
    d = draw(st.integers(0, 3))
    lead = sum(c * t**j for j, c in enumerate(draw(_small_poly.filter(any))))
    for r in draw(st.sets(st.sampled_from([0, 1, 2]))):
        lead = lead * (t - r)
    p = lead * z**d
    for k in range(d):
        p = p + sum(c * t**j for j, c in enumerate(draw(_small_poly))) * z**k
    return p


def _sympy_resultant(f, g, z):
    """res_z(f, g) from sympy.  sympy 1.14 returns res(g, f) when deg f <
    deg g, so ask with the higher degree first and restore the sign
    (-1)^(deg f * deg g)."""
    m, n = sympy.degree(f, z), sympy.degree(g, z)
    if m < n:
        return (-1) ** (m * n) * sympy.resultant(g, f, z)
    return sympy.resultant(f, g, z)


class TestResultantMatchesSympy:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_bivariate(self, data):
        eliminate = data.draw(st.integers(0, 1))
        z = MultiPoly.variable(V2, eliminate)
        t = MultiPoly.variable(V2, 1 - eliminate)
        f = data.draw(_eliminable(z, t))
        g = data.draw(_eliminable(z, t))
        if data.draw(st.booleans()):
            # a shared factor of positive degree in z: the resultant is 0
            common = z - t - data.draw(st.integers(-2, 2))
            f, g = f * common, g * common
        fs, gs = (
            sum(int(c) * SYM2[0] ** i * SYM2[1] ** j for (i, j), c in p.normalized().terms.items())
            for p in (f, g)
        )
        ref = sympy.Poly(_sympy_resultant(fs, gs, SYM2[eliminate]), SYM2[1 - eliminate])
        expected = UniPoly([int(c) for c in reversed(ref.all_coeffs())])
        assert resultant(f, g, eliminate) == expected


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

    def test_enclosures_shrink_under_refinement(self, fermat_dual, fermat_census):
        # the definition check: q and its partials straddle zero over the
        # isolating box, and refining the box keeps shrinking the enclosure
        q, _ = fermat_dual
        from kippenhahn.realroots import _chart_poly

        q_aff = _chart_poly(q, 0)
        system = [q_aff, q_aff.diff(0), q_aff.diff(1)]
        pts = [s for s in fermat_census if s.chart == "affine" and not s.is_rational()]
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

    _coef = st.integers(-3, 3) | st.just(0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_coef, _coef, _coef), min_size=2, max_size=5))
    def test_line_arrangement_census(self, lines):
        # q = product of distinct lines a*y1 + b*y2 + c*y0: the affine
        # singular points are the pairwise crossings, every one a node or a
        # multiple point, of multiplicity >= 3 where three or more lines meet
        lines = [f for f in lines if f[0] or f[1]]
        assume(len(lines) >= 2 and len({primitive(*f) for f in lines}) == len(lines))
        q = yq("1")
        for a, b, c in lines:
            q = q * (yq("y1") * a + yq("y2") * b + yq("y0") * c)
        crossings = set()
        for i, (a1, b1, c1) in enumerate(lines):
            for a2, b2, c2 in lines[i + 1 :]:
                det = a1 * b2 - a2 * b1
                if det:  # Cramer's rule; parallel lines meet at infinity
                    y1 = Fraction(b1 * c2 - b2 * c1, det)
                    y2 = Fraction(a2 * c1 - a1 * c2, det)
                    crossings.add((y1, y2))
        through = {y: sum(a * y[0] + b * y[1] + c == 0 for a, b, c in lines) for y in crossings}
        pts = [s for s in real_singular_points(q) if s.chart == "affine"]
        assert all(isinstance(s.y1, Fraction) and isinstance(s.y2, Fraction) for s in pts)
        assert sorted((s.y1, s.y2) for s in pts) == sorted(crossings)
        assert all(s.isolated is False for s in pts)
        assert all((s.multiplicity_hint == 3) == (through[s.y1, s.y2] >= 3) for s in pts)

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


def yq(text: str) -> MultiPoly:
    return parse_poly(text, VY)


def primitive(*coeffs):
    """Integer coefficients divided by their gcd, first nonzero one positive."""
    g = gcd(*coeffs) * (1 if next(c for c in coeffs if c) > 0 else -1)
    return tuple(c // g for c in coeffs)


# integer factors, most with irrational real roots
_int_factor = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(1, 3)).map(lambda kd: [-kd[0], kd[1]]),
    st.integers(2, 7).map(lambda a: [-a, 0, 1]),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(lambda bc: [bc[1], bc[0], 1]),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda ab: [-ab[1], -ab[0], 0, 1]),
)


class TestRationalizeRoot:
    """``_rationalize_root`` builds an irrational root on its refined interval
    without certifying it again; the result must be the one the public
    constructor certifies, field for field."""

    @staticmethod
    def assert_nested(root, c):
        iv = root.refine(realroots.COORD_EPS)
        if not isinstance(c, AlgebraicReal):
            assert iv.contains(c) and UniPoly(root.poly)(c) == 0
            return
        ref = AlgebraicReal(root.poly, iv)
        assert (c.poly, c.interval) == (ref.poly, ref.interval)
        assert type(c.poly) is tuple and all(type(k) is int for k in c.poly)
        assert type(c.interval.lo) is Fraction and type(c.interval.hi) is Fraction

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_int_factor, min_size=1, max_size=3))
    def test_sampled_integer_polynomials(self, factors):
        f = UniPoly([1])
        for g in factors:
            f = f * UniPoly(g)
        for root in sturm_isolate(f):
            self.assert_nested(root, realroots._rationalize_root(root))

    def test_census_pencil(self, monkeypatch):
        # every root the census takes through _rationalize_root on the dual
        # of the generator's pencil at seed 13
        seen = []
        original = realroots._rationalize_root

        def recording(root):
            seen.append((root, original(root)))
            return seen[-1][1]

        monkeypatch.setattr(realroots, "_rationalize_root", recording)
        q = dual_curve(pencil_det(make_random_pencil(random.Random(13), 3)))
        pts = real_singular_points(q)
        assert len(pts) == 3 and all(isinstance(s.y1, AlgebraicReal) for s in pts)
        assert sum(isinstance(c, AlgebraicReal) for _, c in seen) >= 6
        for root, c in seen:
            self.assert_nested(root, c)


SQRT2 = round(2**0.5, 9)


class TestIsolation:
    """One known verdict per route of the isolation test: the Newton polygon
    at a rational point, the interval Hessian at an algebraic one, and a case
    that neither decides."""

    @pytest.mark.parametrize(
        "q, expected",
        [
            # a node whose loops, about 1e-3 across, fit inside any 1/64 ring
            (
                yq("y1^2 + y2^2") ** 2
                - yq("y0^2*y1^2 - y0^2*y2^2") * Fraction(1, 10**6),
                [(0, 0, False)],
            ),
            (yq("y0^2*y2^2 + y1^4"), [(0, 0, True)]),  # A3 acnode
            (yq("y1^4 + y1^2*y2^2 + y2^4"), [(0, 0, True)]),
            (yq("y0^2*y2^2 - y1^4"), [(0, 0, False)]),  # tacnode
            # the line y2 = 0 through a triple point
            (yq("y2") * yq("y1^2 + y2^2"), [(0, 0, False)]),
            # Hessian definite at the acnodes
            (
                yq("y1^2 - 2*y0^2") ** 2 + yq("y0^2*y2^2"),
                [(-SQRT2, 0, True), (SQRT2, 0, True)],
            ),
            # A7 acnodes: the Hessian is singular there, so no proof decides
            (
                yq("y0^6*y2^2") + yq("y1^2 - 2*y0^2") ** 4,
                [(-SQRT2, 0, None), (SQRT2, 0, None)],
            ),
        ],
    )
    def test_known_verdicts(self, q, expected):
        pts = [s for s in real_singular_points(q) if s.chart == "affine"]
        got = [(round(s.float_coords()[0], 9), s.float_coords()[1], s.isolated) for s in pts]
        assert got == expected

    _small = st.integers(-3, 3)

    @settings(max_examples=30, deadline=None)
    @given(
        st.fractions(-2, 2, max_denominator=3),
        st.fractions(-2, 2, max_denominator=3),
        st.lists(st.tuples(_small, _small), max_size=3),
        st.lists(st.tuples(st.integers(1, 3), _small, st.integers(1, 3)), max_size=2),
        st.lists(_small, min_size=6, max_size=6),
    )
    def test_tangent_cone_decides(self, p1, p2, lines, quads, higher):
        # q = y0 * (real lines and definite quadratic forms through P) + a
        # form of one degree more in the local coordinates: P is isolated
        # exactly when no real line passes through it
        lines = [(a, b) for a, b in lines if a or b]
        quads = [(a, b, c) for a, b, c in quads if b * b < 4 * a * c]
        # distinct factors: no two lines or two quadratics proportional
        assume(len({primitive(*f) for f in lines}) == len(lines))
        assume(len({primitive(*f) for f in quads}) == len(quads))
        m = len(lines) + 2 * len(quads)
        # the whole census of a curve of degree 7 or more takes seconds
        assume(2 <= m <= 4)
        u, v = yq("y1") - yq("y0") * p1, yq("y2") - yq("y0") * p2
        cone = yq("1")
        for a, b in lines:
            cone = cone * (u * a + v * b)
        for a, b, c in quads:
            cone = cone * (u * u * a + u * v * b + v * v * c)
        tail = sum(
            (u ** (m + 1 - k) * v**k * h for k, h in enumerate(higher[: m + 2])),
            yq("0"),
        )
        q = yq("y0") * cone + tail
        assume(q.squarefree_part().proportional_to(q))
        at_p = [
            s
            for s in real_singular_points(q)
            if s.chart == "affine" and (s.y1, s.y2) == (p1, p2)
        ]
        assert len(at_p) == 1
        assert at_p[0].isolated is (not lines)

    @settings(max_examples=25, deadline=None)
    @given(_small, _small, _small)
    def test_hessian_signature_decides(self, a, b, c):
        # q = Q(y1^2 - 2, y2) homogenized: near (+-sqrt 2, 0) the curve is
        # Q(2 sqrt2 u, v) = 0 to second order, isolated iff Q is definite
        assume(b * b != 4 * a * c)
        x, y = yq("y1^2 - 2*y0^2"), yq("y0*y2")
        q = x * x * a + x * y * b + y * y * c
        pts = [
            s
            for s in real_singular_points(q)
            if s.chart == "affine" and s.y2 == 0 and abs(abs(float(s.y1)) - 2**0.5) < 1e-9
        ]
        assert len(pts) == 2
        assert all(s.isolated is (b * b < 4 * a * c) for s in pts)
