import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kippenhahn.exactnum import (
    _pdiv,
    _primitive_ints,
    _sturm_chain,
    AlgebraicReal,
    ComplexInterval,
    GaussianRational,
    ParseError,
    RationalInterval,
    UniPoly,
    parse_gaussian,
    parse_rational,
    simplest_in_interval,
    sturm_count,
)
from kippenhahn.mpoly import MultiPoly
from kippenhahn.realroots import count_real_roots, resultant, sturm_isolate

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

    @pytest.mark.parametrize("text", ["1/0", "1/0*i", "2-3/0*i", "1/00+i"])
    def test_zero_denominator_is_parse_error(self, text):
        with pytest.raises(ParseError, match=r"^zero denominator in '\d+/0+'$"):
            parse_gaussian(text)

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
            for iv, q in (
                (iv1 + iv2, p1 + p2),
                (iv1 - iv2, p1 - p2),
                (iv1 * iv2, p1 * p2),
                (iv1**3, p1**3),
                (iv1**4, p1**4),
            ):
                assert iv.lo <= q <= iv.hi

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
        assert w.re.lo <= Fraction(9, 4) <= w.re.hi
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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_rational, max_size=8), st.integers(-40, 40) | _rational)
    @example([], Fraction(1, 3))
    @example([-2, 0, 1], 0)
    @example([Fraction(-1, 4), 0, 1], Fraction(1, 2))
    def test_sign_at_is_the_sign_of_the_value(self, cs, x):
        f = UniPoly(cs)
        v = sum((Fraction(c) * Fraction(x) ** i for i, c in enumerate(cs)), Fraction(0))
        assert f.sign_at(x) == (v > 0) - (v < 0) == (f(x) > 0) - (f(x) < 0)
        assert type(f.sign_at(x)) is int

    @settings(max_examples=200, deadline=None)
    @given(_interval, st.integers(0, 7))
    def test_interval_power_is_the_range(self, iv, n):
        # x**n over [lo, hi] takes its extremes at the ends, or at 0 inside
        cands = [iv.lo**n, iv.hi**n] + ([Fraction(0) ** n] if iv.contains_zero() else [])
        out = iv**n
        assert (out.lo, out.hi) == (min(cands), max(cands))

    @settings(max_examples=100, deadline=None)
    @given(_interval, _interval)
    def test_interval_sum_difference_negation(self, iv1, iv2):
        assert iv1 + iv2 == RationalInterval(iv1.lo + iv2.lo, iv1.hi + iv2.hi)
        assert iv1 - iv2 == RationalInterval(iv1.lo - iv2.hi, iv1.hi - iv2.lo)
        assert -iv1 == RationalInterval(-iv1.hi, -iv1.lo)
        for out in (iv1 + iv2, iv1 - iv2, -iv1):
            assert type(out.lo) is Fraction and type(out.hi) is Fraction


class TestRootBound:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-60, max_value=60, max_denominator=12),
            min_size=2,
            max_size=8,
        ).filter(lambda cs: cs[-1] != 0)
    )
    @example([0, 1])  # Cauchy bound 1
    @example([-3, 1])  # Cauchy bound 4, a power of two
    @example([Fraction(-1, 3), Fraction(1, 7)])
    def test_least_power_of_two_over_the_cauchy_bound(self, cs):
        f = UniPoly(cs)
        bound = f.root_bound()
        cauchy = 1 + max(abs(c) for c in cs[:-1]) / abs(cs[-1])
        n = bound.numerator
        assert bound.denominator == 1 and n & (n - 1) == 0
        assert cauchy <= bound < 2 * cauchy
        roots = _sympy_poly(cs).real_roots(multiple=False)
        assert all(-bound < r < bound for r, _ in roots)
        assert sturm_count(cs, -bound, bound) == len(roots)


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


def _coprime(cs):
    """Fractions scaled by a positive rational to coprime integers."""
    den = 1
    for c in cs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in cs]
    g = math.gcd(*ints)
    return UniPoly([c // g for c in ints])


def _div(f, g):
    """(q, r) of f by g over Q, by sympy's ``div``."""
    q, r = sympy.div(
        sympy.Poly(list(reversed(f.coeffs)), _X, domain="QQ"),
        sympy.Poly(list(reversed(g.coeffs)), _X, domain="QQ"),
    )
    return tuple(UniPoly([Fraction(str(c)) for c in reversed(h.all_coeffs())]) for h in (q, r))


def _fraction_chain(f):
    """Sturm chain from remainders over Q: f, f', then -rem(prev, last), each
    scaled to coprime integers, divided by the last member when it is not
    constant."""
    chain = [_coprime(f.coeffs)]
    d = UniPoly([i * c for i, c in enumerate(f.coeffs)][1:])
    if not d.is_zero:
        chain.append(_coprime(d.coeffs))
        while True:
            r = _div(chain[-2], chain[-1])[1]
            if r.is_zero:
                break
            chain.append(_coprime([-c for c in r.coeffs]))
    if chain[-1].degree > 0:
        chain = [_div(h, chain[-1])[0] for h in chain]
    return chain


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


_ints = st.lists(st.integers(-40, 40), max_size=8)


class TestPseudoDivision:
    """``_pdiv``, the one integer pseudo-division."""

    @settings(max_examples=300, deadline=None)
    @given(_ints, _ints.filter(lambda b: b and b[-1]), st.integers(-1, 3))
    @example([1, 2, 0, 0], [3, -2], 0)
    @example([5, 0, 1], [0, 0, 0, -3], 2)
    def test_identity_and_sympy_prem(self, a, b, extra):
        steps = max(len(a) - len(b) + 1, 0)
        k = max(steps + extra, 0)
        q, r = _pdiv(a, b, k)
        lhs = [abs(b[-1]) ** max(k, steps) * c for c in a]
        rhs = [x + y for x, y in itertools.zip_longest(_mul(q, b) if q else [], r, fillvalue=0)]
        assert _trim(lhs) == _trim(rhs)
        assert len(r) < len(b) and r == _trim(r)
        # sympy's prem scales by lc(b)^(deg a - deg b + 1), sign included
        prem = sympy.prem(_sympy_poly(a), _sympy_poly(b)).all_coeffs()
        deg_a = len(_primitive_ints(a)) - 1
        sign = (-1 if b[-1] < 0 else 1) ** max(deg_a - len(b) + 2, 0)
        assert _primitive_ints(r) == [sign * c for c in _primitive_ints(list(reversed(prem)))]


class TestSturmChain:
    """The integer pseudo-remainder chain against remainders over Q."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_root, max_size=4),
        _cofactor,
        st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool),
    )
    @example([], [5], Fraction(1))
    @example([(1, 1, 2), (-2, 1, 1)], [1], Fraction(-1, 3))
    @example([(3, 2, 3), (0, 1, 2)], [-2, 0, 1], Fraction(2, 5))
    def test_matches_fraction_remainders(self, roots, cofactor, scale):
        # multiplicities 1 to 3 give squarefree and repeated-root inputs;
        # the scale gives rational coefficients and negative leads
        f = UniPoly([c * scale for c in _build(roots, cofactor)])
        chain = _sturm_chain(f)
        assert [p.coeffs for p in chain] == [p.coeffs for p in _fraction_chain(f)]

    def test_squarefree_and_repeated_examples_are_drawn(self):
        sqfree = UniPoly(_build([(1, 1, 1), (-2, 1, 1), (3, 2, 1)], [1]))
        repeated = UniPoly(_build([(1, 1, 2), (-2, 1, 3)], [-3]))
        assert _sturm_chain(sqfree)[0].degree == 3
        assert _sturm_chain(repeated)[0].degree == 2
        for f in (sqfree, repeated):
            assert [p.coeffs for p in _sturm_chain(f)] == [
                p.coeffs for p in _fraction_chain(f)
            ]


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
    """Resultants in one variable, through ``realroots.resultant`` on
    polynomials in x alone, and the interpolation at 0..m-1 behind every
    exact resultant and determinant."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_root, max_size=1), _cofactor, _cofactor, st.lists(_root, max_size=2))
    def test_resultant_matches_sympy(self, common, cf, cg, only_g):
        # a shared root gives 0; one-entry cofactors give constant sides.
        # resultant normalizes its inputs, so the oracle takes them normalized
        f, g = (
            MultiPoly(("x", "y"), {(i, 0): c for i, c in enumerate(p) if c}).normalized()
            for p in (_build(common, cf), _build(common + only_g, cg))
        )
        fi, gi = ([int(p.terms.get((i, 0), 0)) for i in range(p.degree_in(0) + 1)] for p in (f, g))
        # sympy 1.14 returns res(g, f) when deg f < deg g: ask with the
        # higher degree first and restore the sign (-1)^(deg f * deg g)
        m, n = len(fi) - 1, len(gi) - 1
        if m < n:
            ref = (-1) ** (m * n) * _sympy_poly(gi).resultant(_sympy_poly(fi))
        else:
            ref = _sympy_poly(fi).resultant(_sympy_poly(gi))
        assert resultant(f, g, eliminate=0) == UniPoly([int(ref)])

    def test_interpolate_recovers_polynomial(self):
        # samples with denominators 1, 6, 3 and 2; extra nodes change nothing
        f = UniPoly([3, Fraction(1, 3), Fraction(-1, 2), 5])
        assert [f(k).denominator for k in range(4)] == [1, 6, 3, 2]
        for m in (4, 6):
            assert UniPoly.interpolate([f(k) for k in range(m)]) == f
        assert UniPoly.interpolate([Fraction(-2, 3)]) == UniPoly([Fraction(-2, 3)])
        assert UniPoly.interpolate([0, 0, 0]).is_zero

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=30), max_size=8), st.integers(0, 3))
    def test_interpolate_inverts_evaluation(self, coeffs, extra):
        f = UniPoly(coeffs)
        ys = [f(k) for k in range(len(coeffs) + extra)]
        assert UniPoly.interpolate(ys) == f


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


def _bisection(poly, iv, eps):
    """Plain sign bisection of iv down to width <= eps on Fraction values of
    poly, collapsing to a midpoint that is a root: the reference that
    ``AlgebraicReal.refine`` must reproduce."""

    def sign(x):
        v = sum(Fraction(c) * x**i for i, c in enumerate(poly))
        return (v > 0) - (v < 0)

    lo, hi = iv.lo, iv.hi
    start = sign(lo)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if not sign(mid):
            return RationalInterval(mid, mid)
        lo, hi = (mid, hi) if sign(mid) == start else (lo, mid)
    return RationalInterval(lo, hi)


class TestAlgebraicReal:
    def test_sqrt2_refine(self):
        a = AlgebraicReal((-2, 0, 1), RationalInterval(1, 2))
        iv = a.refine(Fraction(1, 100))
        assert iv.width <= Fraction(1, 100)
        assert a.interval.lo <= iv.lo and iv.hi <= a.interval.hi
        target = bisect_oracle([-2.0, 0.0, 1.0], 1.0, 2.0, 1e-12)
        assert iv.lo <= Fraction(target).limit_denominator(10**9) <= iv.hi

    def test_linear_polynomial(self):
        a = AlgebraicReal((-3, 1), RationalInterval(0, 5))
        iv = a.refine(Fraction(1, 10))
        assert iv.lo <= 3 <= iv.hi

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
            assert prev.lo <= iv.lo and iv.hi <= prev.hi
            assert iv.width <= eps
            prev = iv
            eps /= 2

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 30).filter(lambda n: math.isqrt(n) ** 2 != n),
        st.integers(-8, 8),
        st.integers(0, 4),
        st.one_of(st.integers(0, 2), st.just(None)),
        st.integers(0, 3),
        st.lists(
            st.fractions(Fraction(1, 10**9), 4, max_denominator=10**9),
            min_size=1,
            max_size=6,
        ),
    )
    @example(2, 1, 1, None, 1, [Fraction(1, 8), Fraction(1), Fraction(1, 1000)])
    def test_refine_widths_match_a_fresh_number(self, n, m, k, index, j, widths):
        # (2^k x - m)(x^2 - n) is squarefree for nonsquare n; with index None
        # the interval is centred on the rational root m/2^k, the first
        # bisection midpoint, so refining below its width collapses it
        poly = UniPoly(_mul([-m, 2**k], [-n, 0, 1])).int_coeffs()
        r, h = Fraction(m, 2**k), Fraction(1, 2**j)
        if index is None:
            iv = RationalInterval(r - h, r + h)
            if sturm_count(poly, iv.lo, iv.hi) != 1:
                return  # the interval holds an irrational root as well
        else:
            iv = sturm_isolate(UniPoly(poly))[index].interval
        a = AlgebraicReal(poly, iv)
        for eps in widths + widths[::-1]:
            got = a.refine(eps)
            assert got == AlgebraicReal(poly, iv).refine(eps)
            if index is None and eps < 2 * h:
                assert got == RationalInterval(r, r)

    @pytest.mark.parametrize(
        "poly, lo, hi",
        [
            ((-2, 0, 1), 1, 2),
            ((-2, 0, 1), Fraction(-3, 2), Fraction(-1, 3)),
            ((-1, 0, 0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 1), 1, 2),
        ],
    )
    def test_refine_resumes_from_a_coarser_width(self, monkeypatch, poly, lo, hi):
        eps = Fraction(1, 10**20)
        a, fresh = (AlgebraicReal(poly, RationalInterval(lo, hi)) for _ in range(2))
        calls = []
        horner = UniPoly._horner
        monkeypatch.setattr(UniPoly, "_horner", lambda f, x: calls.append(x) or horner(f, x))
        kept = a.refine(eps)
        calls.clear()
        resumed = a.refine(eps**2)
        steps = list(calls)
        calls.clear()
        assert resumed == fresh.refine(eps**2)
        # every value the resumed refinement takes lies in the kept interval
        assert steps and all(kept.lo <= x <= kept.hi for x in steps)
        assert len(steps) < len(calls)

    def test_refine_spends_few_evaluations_on_omega(self, monkeypatch):
        # bisection from [1, 2] to width 1e-40 takes 133 signs; quadratic
        # interval refinement took 21 values
        a = AlgebraicReal((-1, 0, 0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 1), RationalInterval(1, 2))
        calls = []
        horner = UniPoly._horner
        monkeypatch.setattr(UniPoly, "_horner", lambda f, x: calls.append(x) or horner(f, x))
        iv = a.refine(Fraction(1, 10**40))
        assert iv == _bisection(a.poly, a.interval, Fraction(1, 10**40))
        assert len(calls) <= 30

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-40, 40), st.sampled_from([1, 2, 4, 8, 64, 3, 5, 6, 7, 12, 9])),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([[1], [-2, 0, 1], [-3, 0, 0, 1], [1, 1, 1]]),
        st.lists(
            st.sampled_from([Fraction(1, 10**k) for k in (1, 2, 5, 13, 20, 40)]
                            + [Fraction(1, 2**k) for k in (3, 7, 30, 64)] + [Fraction(3, 7), Fraction(2)]),
            min_size=1,
            max_size=4,
        ),
    )
    @example([(1, 2), (3, 4)], [1], [Fraction(1, 2**30), Fraction(1, 10**20)])
    @example([(1, 3), (-5, 7)], [-2, 0, 1], [Fraction(1, 10**40)])
    def test_refine_matches_bisection(self, roots, cofactor, widths):
        # planted rational roots k/d, dyadic (grid points of bisection from a
        # dyadic interval) and not, beside the irrational roots of a cofactor
        poly = cofactor
        for k, d in set(roots):
            poly = _mul(poly, [-k, d])
        isolated = sturm_isolate(UniPoly(poly))
        squarefree = isolated[0].poly
        intervals = [root.interval for root in isolated]
        # an interval centred on the first planted root, whose midpoint it is
        r, h = Fraction(*roots[0]), Fraction(1, 2**12)
        if sturm_count(squarefree, r - h, r + h) == 1:
            intervals.append(RationalInterval(r - h, r + h))
        for iv in intervals:
            again = AlgebraicReal(squarefree, iv)
            for eps in widths:
                want = _bisection(squarefree, iv, eps)
                assert AlgebraicReal(squarefree, iv).refine(eps) == want
                assert again.refine(eps) == want  # through the kept intervals

    def test_sturm_certificate_is_one(self):
        a = AlgebraicReal((-2, 0, 1), RationalInterval(1, 2))
        assert sturm_count(a.poly, a.interval.lo, a.interval.hi) == 1

    def test_rejects_two_roots(self):
        with pytest.raises(ValueError):
            AlgebraicReal((-2, 0, 1), RationalInterval(-2, 2))

    @pytest.mark.parametrize(
        "poly, lo, hi",
        [
            ((-2, 0, 1), 1, 1),  # a point that is not a root
            ((0, -1, 1), 0, 2),  # roots 0 and 1, one an endpoint
            ((-2, -1, 1), -1, 3),  # roots -1 and 2, one an endpoint
        ],
    )
    def test_rejects_a_closed_interval_without_one_root(self, poly, lo, hi):
        with pytest.raises(ValueError, match="isolates"):
            AlgebraicReal(poly, RationalInterval(lo, hi))

    def test_rejects_nonsquarefree(self):
        with pytest.raises(ValueError):
            AlgebraicReal((1, 2, 1), RationalInterval(-2, 0))  # (t+1)^2

    @pytest.mark.parametrize("poly", [[Fraction(-3, 2), 0, 1], [-2.7, 0, 1]])
    def test_rejects_noninteger_coefficients(self, poly):
        # truncated to integers, these would certify 1 and sqrt(2) instead
        with pytest.raises(ValueError, match="not all integers"):
            AlgebraicReal(poly, RationalInterval(1, 2))

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
        assert wide.is_root_of(UniPoly(_mul([-3, 1], [1, 1])))
        assert not wide.is_root_of(UniPoly([0, 2]))  # (t^2 - 9)' = 2t

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
        m, f = [1], cofactor
        for fac, k in zip(factors, keep):
            m = _mul(m, fac)
            if k:
                f = _mul(f, fac)
        f = UniPoly(f)
        roots = sturm_isolate(UniPoly(m))
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
        assert a.interval == RationalInterval(3, 3)
        # t^2 - t: each root alone at either end of the interval
        for lo, hi, root in ((0, Fraction(1, 2), 0), (Fraction(1, 2), 1, 1)):
            a = AlgebraicReal((0, -1, 1), RationalInterval(lo, hi))
            assert a.interval == RationalInterval.point(root)
