import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kippenhahn.exactnum import (
    AlgebraicReal,
    ComplexInterval,
    GaussianRational,
    ParseError,
    RationalInterval,
    UniPoly,
    format_rational,
    parse_gaussian,
    parse_rational,
    simplest_in_interval,
    sturm_count,
)
from kippenhahn.realroots import count_real_roots, sturm_isolate

_X = sympy.symbols("x")


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _build(roots, cofactor):
    """Ascending integer coefficients of cofactor * prod (d t - k)^mult."""
    poly = cofactor
    for k, d, mult in roots:
        for _ in range(mult):
            poly = _mul(poly, [-k, d])
    return poly


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), _X)


def _monic(coeffs):
    """Ascending coefficients scaled to leading coefficient 1, trimmed."""
    cs = [Fraction(str(c)) for c in coeffs]  # Fraction or sympy rational
    while cs and not cs[-1]:
        cs.pop()
    return [c / cs[-1] for c in cs] if cs else []


# integer polynomials built from rational roots k/d with multiplicities, times
# a random integer cofactor, so that interval endpoints often hit a root,
# sometimes a multiple one
_root = st.tuples(st.integers(-6, 6), st.sampled_from([1, 2]), st.integers(1, 3))
_cofactor = st.lists(st.integers(-5, 5), min_size=1, max_size=5).filter(any)
_endpoint = st.fractions(min_value=-4, max_value=4, max_denominator=2)
# ascending integer factors, some irreducible with irrational real roots
_factor = st.one_of(
    st.tuples(st.integers(-6, 6), st.sampled_from([1, 2])).map(lambda kd: [-kd[0], kd[1]]),
    st.integers(2, 7).map(lambda a: [-a, 0, 1]),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(lambda bc: [bc[1], bc[0], 1]),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda ab: [-ab[1], -ab[0], 0, 1]),
)


class TestRationals:
    def test_addition(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_inverse_pair(self):
        assert Fraction(3, 4) * Fraction(-4, 3) == -1

    def test_division_from_curve_coefficient(self):
        # hand computation: (55/64) / 5 = 11/64
        assert Fraction(55, 64) / 5 == Fraction(11, 64)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_canonical_form(self):
        assert Fraction(6, -4) == Fraction(-3, 2)
        assert Fraction(6, -4).denominator == 2
        assert Fraction(0, 7) == Fraction(0, 1)

    def test_parse_and_format(self):
        assert parse_rational(" 5/6 ") == Fraction(5, 6)
        assert parse_rational("-3") == -3
        assert format_rational(Fraction(10, 4)) == "5/2"
        with pytest.raises(ParseError):
            parse_rational("5//6")

    def test_field_axioms_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (
                Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c


class TestGaussianRational:
    def test_parse_examples(self):
        assert parse_gaussian("1/2-2/3*i") == GaussianRational(
            Fraction(1, 2), Fraction(-2, 3)
        )
        assert parse_gaussian("i") == GaussianRational(0, 1)
        assert parse_gaussian("-i") == GaussianRational(0, -1)
        assert parse_gaussian("3*i") == GaussianRational(0, 3)
        assert parse_gaussian(" 2 ") == GaussianRational(2, 0)
        assert parse_gaussian("3+i") == GaussianRational(3, 1)
        with pytest.raises(ParseError):
            parse_gaussian("2+*i")
        with pytest.raises(ParseError):
            parse_gaussian("")

    def test_str_roundtrip(self):
        rng = random.Random(3)
        for _ in range(100):
            z = GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            assert parse_gaussian(str(z)) == z

    def test_conjugation_involution(self):
        rng = random.Random(11)
        for _ in range(50):
            z = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
            assert z.conjugate().conjugate() == z

    def test_field_ops(self):
        rng = random.Random(13)
        for _ in range(100):
            a = GaussianRational(
                Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            )
            b = GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            )
            c = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
            assert a * (b + c) == a * b + a * c
            if not b.is_zero:
                assert (a / b) * b == a
        assert GaussianRational(0, 1) * GaussianRational(0, 1) == -1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)


class TestRationalInterval:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            RationalInterval(1, 0)

    def test_width_exact(self):
        iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
        assert iv.width == Fraction(1, 6)

    def test_arithmetic_encloses(self):
        rng = random.Random(5)
        for _ in range(200):
            lo1 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            lo2 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            iv1 = RationalInterval(lo1, lo1 + Fraction(rng.randint(0, 10), 7))
            iv2 = RationalInterval(lo2, lo2 + Fraction(rng.randint(0, 10), 7))
            p1 = iv1.lo + (iv1.hi - iv1.lo) * Fraction(rng.randint(0, 8), 8)
            p2 = iv2.lo + (iv2.hi - iv2.lo) * Fraction(rng.randint(0, 8), 8)
            assert (iv1 + iv2).contains(p1 + p2)
            assert (iv1 - iv2).contains(p1 - p2)
            assert (iv1 * iv2).contains(p1 * p2)
            assert (iv1**3).contains(p1**3)
            assert (iv1**4).contains(p1**4)

    def test_even_power_tight_at_zero(self):
        iv = RationalInterval(-1, 2)
        sq = iv**2
        assert sq.lo == 0 and sq.hi == 4

    def test_reciprocal(self):
        iv = RationalInterval(Fraction(1, 2), 2)
        r = iv.reciprocal()
        assert r.lo == Fraction(1, 2) and r.hi == 2
        with pytest.raises(ZeroDivisionError):
            RationalInterval(-1, 1).reciprocal()

    def test_complex_interval_mul(self):
        z = ComplexInterval(RationalInterval(1, 2), RationalInterval(-1, 1))
        w = z * z
        # midpoint-of-box product must land inside
        assert w.re.contains(Fraction(9, 4) - 0) or w.re.contains(Fraction(1))
        assert (z - z).contains_zero()


_rational = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_interval = st.lists(_rational, min_size=2, max_size=2).map(sorted).map(
    lambda ends: RationalInterval(*ends)
)
# endpoints of every sign, with zero, so that pairs reach all nine sign cases
_SIGNED_ENDS = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(2)]


def _product_hull(iv1, iv2):
    products = [a * b for a in (iv1.lo, iv1.hi) for b in (iv2.lo, iv2.hi)]
    return min(products), max(products)


class TestExactKernels:
    """The integer Horner of ``UniPoly.__call__`` and the sign-case interval
    product against their textbook definitions."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_rational, max_size=8), st.integers(-40, 40) | _rational)
    @example([], 3)
    @example([0, 0], Fraction(-1, 2))
    @example([Fraction(5, 3)], 0)
    @example([Fraction(5, 3)], Fraction(-7, 4))
    @example([1, -2, 3], 0)
    @example([Fraction(1, 2), Fraction(-3, 4), Fraction(2, 9)], -3)
    @example([Fraction(1, 6), 0, 0, Fraction(-5, 4)], Fraction(-2, 3))
    def test_unipoly_call_is_the_power_sum(self, cs, x):
        v = UniPoly(cs)(x)
        assert type(v) is Fraction
        assert v == sum((Fraction(c) * Fraction(x) ** i for i, c in enumerate(cs)), Fraction(0))

    def test_unipoly_call_keeps_other_rings(self):
        f = UniPoly([Fraction(1, 2), -3, 1])
        t = RationalInterval(-1, 2)
        assert f(t) == (t - 3) * t + Fraction(1, 2)  # Horner's enclosure
        assert f(GaussianRational(1, 1)) == GaussianRational(Fraction(-5, 2), -1)
        assert f(UniPoly([0, 2])) == UniPoly([Fraction(1, 2), -6, 4])

    @settings(max_examples=200, deadline=None)
    @given(_interval, _interval)
    def test_interval_product_is_the_endpoint_hull(self, iv1, iv2):
        out = iv1 * iv2
        assert (out.lo, out.hi) == _product_hull(iv1, iv2)
        assert type(out.lo) is Fraction and type(out.hi) is Fraction

    def test_interval_product_every_sign_case(self):
        # every interval on the signed ends, point intervals among them
        ivs = [RationalInterval(a, b) for a, b in itertools.product(_SIGNED_ENDS, repeat=2) if a <= b]
        cases = set()
        for iv1, iv2 in itertools.product(ivs, repeat=2):
            out = iv1 * iv2
            assert (out.lo, out.hi) == _product_hull(iv1, iv2)
            assert type(out.lo) is Fraction and type(out.hi) is Fraction
            assert iv1 * iv2.lo == RationalInterval(*_product_hull(iv1, RationalInterval.point(iv2.lo)))
            cases.add((iv1.sign(), iv2.sign()))
        assert len(cases) == 9

    @settings(max_examples=100, deadline=None)
    @given(_interval, _interval)
    def test_interval_sum_difference_negation(self, iv1, iv2):
        assert iv1 + iv2 == RationalInterval(iv1.lo + iv2.lo, iv1.hi + iv2.hi)
        assert iv1 - iv2 == RationalInterval(iv1.lo - iv2.hi, iv1.hi - iv2.lo)
        assert -iv1 == RationalInterval(-iv1.hi, -iv1.lo)
        for out in (iv1 + iv2, iv1 - iv2, -iv1):
            assert type(out.lo) is Fraction and type(out.hi) is Fraction


class TestSturmCount:
    def test_sqrt2(self):
        poly = (-2, 0, 1)
        assert sturm_count(poly, 0, 2) == 1
        assert sturm_count(poly, -2, 2) == 2
        assert sturm_count(poly, 2, 3) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_root, max_size=3), _cofactor, _endpoint, _endpoint)
    def test_matches_sympy(self, roots, cofactor, a, b):
        poly = _build(roots, cofactor)
        lo, hi = min(a, b), max(a, b)
        # sympy counts distinct roots in the closed [lo, hi]; ours in (lo, hi]
        ref = _sympy_poly(poly)
        expected = ref.count_roots(lo, hi) - (1 if ref.eval(lo) == 0 else 0)
        assert sturm_count(poly, lo, hi) == expected
        assert count_real_roots(UniPoly(poly), lo, hi) == expected


class TestUniPolyGcd:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_root, max_size=3),
        st.lists(_root, max_size=2),
        st.lists(_root, max_size=2),
        _cofactor,
        _cofactor,
    )
    def test_gcd_matches_sympy(self, common, only_f, only_g, cf, cg):
        f = _build(common + only_f, cf)
        g = _build(common + only_g, cg)
        ours = UniPoly(f).gcd(UniPoly(g))
        ref = sympy.gcd(_sympy_poly(f), _sympy_poly(g))
        assert _monic(ours.coeffs) == _monic(reversed(ref.all_coeffs()))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_root, max_size=4), _cofactor)
    def test_squarefree_part_matches_sympy(self, roots, cofactor):
        f = _build(roots, cofactor)
        ours = UniPoly(f).squarefree_part()
        ref = sympy.sqf_part(_sympy_poly(f))
        assert _monic(ours.coeffs) == _monic(reversed(ref.all_coeffs()))


class TestUniPolyResultant:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_root, max_size=1), _cofactor, _cofactor, st.lists(_root, max_size=2))
    def test_resultant_matches_sympy(self, common, cf, cg, only_g):
        # a shared root gives 0; one-entry cofactors give constant sides
        f = _build(common, cf)
        g = _build(common + only_g, cg)
        # sympy 1.14 returns res(g, f) when deg f < deg g: ask with the
        # higher degree first and restore the sign (-1)^(deg f * deg g)
        m, n = UniPoly(f).degree, UniPoly(g).degree
        if m < n:
            ref = (-1) ** (m * n) * _sympy_poly(g).resultant(_sympy_poly(f))
        else:
            ref = _sympy_poly(f).resultant(_sympy_poly(g))
        assert UniPoly(f).resultant(UniPoly(g)) == Fraction(int(ref))

    def test_interpolate_recovers_polynomial(self):
        f = UniPoly([3, 0, Fraction(-1, 2), 5])
        xs = [0, 2, 3, 7]
        assert UniPoly.interpolate(xs, [f(x) for x in xs]) == f


class TestSimplestInInterval:
    def test_examples(self):
        assert simplest_in_interval(Fraction(14, 10), Fraction(15, 10)) == Fraction(3, 2)
        assert simplest_in_interval(Fraction(3, 10), Fraction(5, 10)) == Fraction(1, 2)
        assert simplest_in_interval(Fraction(3, 10), Fraction(49, 100)) == Fraction(1, 3)
        assert simplest_in_interval(Fraction(-1, 2), Fraction(1, 3)) == 0
        assert simplest_in_interval(Fraction(7), Fraction(7)) == 7

    def test_simplest_is_inside(self):
        rng = random.Random(23)
        for _ in range(200):
            lo = Fraction(rng.randint(-400, 400), rng.randint(1, 100))
            hi = lo + Fraction(rng.randint(1, 50), rng.randint(1, 100))
            s = simplest_in_interval(lo, hi)
            assert lo <= s <= hi


def bisect_oracle(poly, lo, hi, eps):
    """Independent float bisection on an ascending-coefficient polynomial."""

    def ev(x):
        acc = 0.0
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    flo = ev(lo)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        v = ev(mid)
        if (v > 0) == (flo > 0):
            lo, flo = mid, v
        else:
            hi = mid
    return (lo + hi) / 2


class TestAlgebraicReal:
    def test_sqrt2_refine(self):
        a = AlgebraicReal((-2, 0, 1), RationalInterval(1, 2))
        iv = a.refine(Fraction(1, 100))
        assert iv.width <= Fraction(1, 100)
        assert a.interval.contains_interval(iv)
        target = bisect_oracle([-2.0, 0.0, 1.0], 1.0, 2.0, 1e-12)
        assert iv.contains(Fraction(target).limit_denominator(10**9))

    def test_linear_polynomial(self):
        a = AlgebraicReal((-3, 1), RationalInterval(0, 5))
        iv = a.refine(Fraction(1, 10))
        assert iv.contains(3)

    def test_omega_polynomial(self):
        # omega satisfies u^2 - 11u - 1 = 0 with u = omega^6, hence
        # omega^12 - 11 omega^6 - 1 = 0; the paper quotes omega ~ 1.49
        poly = (-1, 0, 0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 1)
        a = AlgebraicReal(poly, RationalInterval(1, 2))
        iv = a.refine(Fraction(1, 1000))
        target = bisect_oracle([float(c) for c in poly], 1.0, 2.0, 1e-13)
        assert abs(float(iv.mid) - target) < 2e-3
        assert 1.49 <= float(iv.mid) <= 1.50

    def test_nested_chain(self):
        a = AlgebraicReal((-2, 0, 1), RationalInterval(0, 3))
        eps = Fraction(1, 4)
        prev = a.interval
        for _ in range(10):
            iv = a.refine(eps)
            assert prev.contains_interval(iv)
            assert iv.width <= eps
            prev = iv
            eps /= 2

    def test_sturm_certificate_is_one(self):
        a = AlgebraicReal((-2, 0, 1), RationalInterval(1, 2))
        assert sturm_count(a.poly, a.interval.lo, a.interval.hi) == 1

    def test_rejects_two_roots(self):
        with pytest.raises(ValueError):
            AlgebraicReal((-2, 0, 1), RationalInterval(-2, 2))

    def test_rejects_nonsquarefree(self):
        with pytest.raises(ValueError):
            AlgebraicReal((1, 2, 1), RationalInterval(-2, 0))  # (t+1)^2

    def test_is_root_of_rational_and_trivial_generator(self):
        zero = AlgebraicReal((0, 1), RationalInterval.point(0))
        assert zero.is_root_of(UniPoly([]))
        assert zero.is_root_of(UniPoly([0, 3]))
        assert not zero.is_root_of(UniPoly([1, 1]))
        assert not zero.is_root_of(UniPoly([5]))
        three = AlgebraicReal((-9, 0, 1), RationalInterval(3, 5))  # collapses
        assert three.is_root_of(UniPoly([-3, 1]))
        assert not three.is_root_of(UniPoly([3, 1]))
        wide = AlgebraicReal((-3, 1), RationalInterval(0, 5))
        assert wide.is_root_of(UniPoly([-3, 1]) * UniPoly([1, 1]))
        assert not wide.is_root_of(UniPoly([-9, 0, 1]).derivative())

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_factor, min_size=1, max_size=3),
        st.lists(st.booleans(), min_size=3, max_size=3),
        _cofactor,
        st.integers(0, 10),
    )
    def test_is_root_of_matches_sympy(self, factors, keep, cofactor, index):
        # the oracle: sympy's minimal polynomial of the matching real root
        # divides f exactly
        m = UniPoly([1])
        f = UniPoly(cofactor)
        for fac, k in zip(factors, keep):
            m = m * UniPoly(fac)
            if k:
                f = f * UniPoly(fac)
        roots = sturm_isolate(m)
        if not roots:
            return
        index %= len(roots)
        root = roots[index]
        sq = _sympy_poly([int(c) for c in root.poly])
        minpoly = sympy.minimal_polynomial(sympy.CRootOf(sq.as_expr(), index), _X)
        expected = sympy.rem(_sympy_poly(f.int_coeffs()).as_expr(), minpoly, _X) == 0
        assert root.is_root_of(f) == expected

    def test_endpoint_root_collapses(self):
        a = AlgebraicReal((-9, 0, 1), RationalInterval(3, 5))
        assert a.is_rational and a.as_rational() == 3
